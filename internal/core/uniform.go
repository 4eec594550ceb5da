package core

import (
	"fmt"
	"math"
	"sync"

	"antsearch/internal/agent"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// Uniform is Algorithm 1 of the paper (Theorem 3.3): a uniform search
// algorithm — the agents receive no information whatsoever about k — that is
// O(log^(1+ε) k)-competitive for every fixed ε > 0.
//
// Every agent runs the following triple loop forever:
//
//	for big-stage ℓ = 0, 1, 2, ...:
//	    for stage i = 0, ..., ℓ:
//	        for phase j = 0, ..., i:
//	            D_{i,j} = sqrt(2^(i+j) / j^(1+ε))
//	            go to a node chosen uniformly at random in B(D_{i,j})
//	            perform a spiral search for t_{i,j} = 2^(i+2) / j^(1+ε) steps
//	            return to the source
//
// Intuitively, phase j of stage i is tuned for the case where the number of
// agents is about 2^j and the treasure is at distance about D_{i,j}; because
// the agent does not know which case it is in, it hedges over all of them and
// pays a polylogarithmic overhead.
//
// The paper writes j^(1+ε) with j starting at 0; as is standard, the j = 0
// term is interpreted with max(j, 1), which changes no asymptotic statement.
type Uniform struct {
	epsilon float64
	// weights[j] is the phase weight max(j, 1)^(1+ε), filled once by the
	// first NewSearcher rather than by NewUniform: a sweep builds an
	// algorithm per (scenario, D) while expanding its grid, before it writes
	// the first row, and a cached cell never runs a trial.
	weightsOnce sync.Once
	weights     [phaseWeights]float64
}

// phaseWeights is the number of phases whose weight the table holds. An
// agent reaches phase j only after a spiral of 2^(j+1) steps (stage j-1,
// phase 0), so a run under sim.DefaultMaxTime never leaves the table; later
// phases compute their weight directly.
const phaseWeights = 64

// NewUniform returns the uniform algorithm with hedging exponent 1+epsilon.
// Theorem 3.3 requires epsilon > 0; Theorem 4.1 shows why epsilon = 0 is
// unattainable.
func NewUniform(epsilon float64) (*Uniform, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("uniform: epsilon must be positive, got %v", epsilon)
	}
	return &Uniform{epsilon: epsilon}, nil
}

// Name implements agent.Algorithm.
func (a *Uniform) Name() string { return fmt.Sprintf("uniform(eps=%.2g)", a.epsilon) }

// uniformSearcher holds one agent's triple-loop state: big-stage ell >= 0,
// stage i in [0, ell], phase j in [0, i]. j is incremented before use,
// starting from -1 so that the first sortie is (ell=0, i=0, j=0).
type uniformSearcher struct {
	rng       *xrand.Stream
	weights   *[phaseWeights]float64
	epsilon   float64
	ell, i, j int
}

// EmitSortie implements agent.Searcher: one sortie of the triple loop per
// call.
func (s *uniformSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	s.j++
	if s.j > s.i {
		s.i++
		s.j = 0
		if s.i > s.ell {
			s.ell++
			s.i = 0
		}
	}
	denom := s.phaseWeight()
	// Ldexp(1, e) is exactly 2^e, the same value math.Pow(2, e) returns.
	radius := clampRadius(math.Sqrt(math.Ldexp(1, s.i+s.j) / denom))
	steps := clampSteps(math.Ldexp(1, s.i+2) / denom)
	return appendSortie(buf, sortie{
		target:      s.rng.UniformBallPoint(radius),
		spiralSteps: steps,
	}), true
}

// phaseWeight returns the current phase's weight max(j, 1)^(1+ε).
func (s *uniformSearcher) phaseWeight() float64 {
	if s.j < len(s.weights) {
		return s.weights[s.j]
	}
	return math.Pow(float64(s.j), 1+s.epsilon)
}

// NewSearcher implements agent.Algorithm.
func (a *Uniform) NewSearcher(prev agent.Searcher, rng *xrand.Stream, _ int) agent.Searcher {
	a.weightsOnce.Do(a.fillWeights)
	return agent.ReuseOrNew(prev, uniformSearcher{rng: rng, weights: &a.weights, epsilon: a.epsilon, j: -1})
}

// fillWeights computes the phase weight table.
func (a *Uniform) fillWeights() {
	for j := range a.weights {
		a.weights[j] = math.Pow(math.Max(float64(j), 1), 1+a.epsilon)
	}
}

// UniformFactory returns a Factory for the uniform algorithm: the returned
// factory ignores k entirely, which is exactly what "uniform" means.
func UniformFactory(epsilon float64) (agent.Factory, error) {
	alg, err := NewUniform(epsilon)
	if err != nil {
		return nil, err
	}
	return func(int) agent.Algorithm { return alg }, nil
}
