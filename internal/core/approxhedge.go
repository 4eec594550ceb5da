package core

import (
	"fmt"
	"math"

	"antsearch/internal/agent"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// ApproxHedge is the natural algorithm for the intermediate setting of
// Theorem 4.2, in which every agent receives a one-sided k^ε-approximation
// k̃ of the number of agents (the guarantee is k̃^(1−ε) ≤ k ≤ k̃). The paper
// proves a lower bound of Ω(ε·log k) on the competitiveness achievable with
// such advice; ApproxHedge shows the bound is essentially tight by hedging
// only over the ε·log₂ k̃ + 1 powers of two that the advice leaves possible:
//
//	for stage i = 1, 2, ...:
//	    for every candidate c = 2^j with k̃^(1−ε) ≤ 2^j ≤ k̃ (largest first):
//	        go to a node chosen uniformly at random in B(sqrt(2^i · c))
//	        perform a spiral search for 2^(i+2) steps
//	        return to the source
//
// Each phase costs O(2^i) regardless of the candidate, a stage costs
// O((ε·log k̃ + 1)·2^i), and the candidate closest to the true k succeeds
// with constant probability once 2^i ≳ D²·/k, so the expected time is
// O((ε·log k̃ + 1)·(D + D²/k)). With ε → 0 the candidate set collapses to
// {k̃} and the algorithm degenerates to KnownK; with ε = 1 (no information)
// its guarantee degrades to the Θ(log k) hedging that Theorem 4.1 shows is
// unavoidable... and unattainable by a uniform algorithm, which is exactly
// why Uniform needs its extra j^(1+ε) padding. ApproxHedge is not spelled
// out in the paper; it is the algorithm its discussion of Theorem 4.2
// implies, and experiment E5 uses it to trace the Θ(ε·log k) frontier.
type ApproxHedge struct {
	kTilde  int
	epsilon float64

	// candidates are the hedged values of k, in decreasing order.
	candidates []int
}

// NewApproxHedge returns the hedging algorithm for agents whose input
// estimate is kTilde with one-sided error exponent epsilon in [0, 1].
func NewApproxHedge(kTilde int, epsilon float64) (*ApproxHedge, error) {
	if err := agent.Validate("kTilde", kTilde, 1); err != nil {
		return nil, fmt.Errorf("approx-hedge: %w", err)
	}
	if epsilon < 0 || epsilon > 1 {
		return nil, fmt.Errorf("approx-hedge: epsilon must be in [0, 1], got %v", epsilon)
	}
	a := &ApproxHedge{kTilde: kTilde, epsilon: epsilon}
	a.candidates = hedgeCandidates(kTilde, epsilon)
	return a, nil
}

// hedgeCandidates returns the powers of two in [kTilde^(1-eps), kTilde], in
// decreasing order. The list always contains at least one value.
func hedgeCandidates(kTilde int, epsilon float64) []int {
	upper := float64(kTilde)
	lower := math.Pow(upper, 1-epsilon)
	var out []int
	for j := int(math.Floor(math.Log2(upper))); j >= 0; j-- {
		c := math.Pow(2, float64(j))
		if c > upper {
			continue
		}
		if c < lower && len(out) > 0 {
			break
		}
		out = append(out, int(c))
		if c < lower {
			break
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// KTilde returns the estimate the agents received.
func (a *ApproxHedge) KTilde() int { return a.kTilde }

// Candidates returns the hedged candidate values of k (decreasing). The
// returned slice is a copy.
func (a *ApproxHedge) Candidates() []int {
	return append([]int(nil), a.candidates...)
}

// Name implements agent.Algorithm.
func (a *ApproxHedge) Name() string {
	return fmt.Sprintf("approx-hedge(kTilde=%d,eps=%.2g)", a.kTilde, a.epsilon)
}

// approxHedgeSearcher cycles through the hedged candidates within growing
// stages (idx is incremented before use).
type approxHedgeSearcher struct {
	rng        *xrand.Stream
	candidates []int
	stage, idx int
}

// EmitSortie implements agent.Searcher: one sortie, for the next candidate,
// per call.
func (s *approxHedgeSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	s.idx++
	if s.idx >= len(s.candidates) {
		s.idx = 0
		s.stage++
	}
	c := float64(s.candidates[s.idx])
	// Ldexp(1, e) is exactly 2^e, the same value math.Pow(2, e) returns.
	radius := clampRadius(math.Sqrt(math.Ldexp(1, s.stage) * c))
	steps := clampSteps(math.Ldexp(1, s.stage+2))
	return appendSortie(buf, sortie{
		target:      s.rng.UniformBallPoint(radius),
		spiralSteps: steps,
	}), true
}

// NewSearcher implements agent.Algorithm.
func (a *ApproxHedge) NewSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	return agent.ReuseOrNew(prev, approxHedgeSearcher{rng: rng, candidates: a.candidates, stage: 1, idx: -1})
}

// ApproxHedgeFactory returns a Factory modelling the Theorem 4.2 setting: for
// an instance with k agents every agent receives the one-sided estimate
// k̃ = ceil(k^(1/(1−ε))) (so that k̃^(1−ε) ≈ k ≤ k̃, the worst end of the
// allowed range) and runs ApproxHedge.
func ApproxHedgeFactory(epsilon float64) (agent.Factory, error) {
	if epsilon < 0 || epsilon > 1 {
		return nil, fmt.Errorf("approx-hedge factory: epsilon must be in [0, 1], got %v", epsilon)
	}
	return func(k int) agent.Algorithm {
		if k < 1 {
			k = 1
		}
		kTilde := k
		if epsilon < 1 {
			kTilde = int(math.Ceil(math.Pow(float64(k), 1/(1-epsilon))))
		} else {
			// epsilon == 1 conveys no information at all; model it as a very
			// coarse estimate (the square of the true value).
			kTilde = k * k
		}
		if kTilde < k {
			kTilde = k
		}
		alg, err := NewApproxHedge(kTilde, epsilon)
		if err != nil {
			panic(err) // inputs validated above; this is a programming error
		}
		return alg
	}, nil
}
