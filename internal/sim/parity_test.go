package sim_test

// Engine-path parity across the whole scenario registry: for every builtin
// algorithm, full batches (one EmitSortie call per sortie feeding the
// buffered engine loop), one-segment batches (the same schedule re-emitted a
// segment per call by a wrapper) and the cell-by-cell exact engine must agree
// on every field of the Result. This is the contract that makes batch
// emission an invisible optimization: where a schedule is cut into batches
// must never show in a result.

import (
	"reflect"
	"sort"
	"testing"

	"antsearch/internal/agent"
	"antsearch/internal/grid"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
	"antsearch/internal/trajectory"
	"antsearch/internal/xrand"
)

// oneSegmentSearcher re-emits the inner searcher's batches one segment per
// EmitSortie call, so the engines see the same schedule in the finest
// possible batches.
type oneSegmentSearcher struct {
	inner   agent.Searcher
	pending []trajectory.Seg
	next    int
}

func (s *oneSegmentSearcher) EmitSortie(buf []trajectory.Seg) ([]trajectory.Seg, bool) {
	for s.next == len(s.pending) {
		segs, ok := s.inner.EmitSortie(s.pending[:0])
		s.pending, s.next = segs, 0
		if !ok {
			return buf, false
		}
	}
	s.next++
	return append(buf, s.pending[s.next-1]), true
}

// oneSegmentAlgorithm wraps every searcher an algorithm builds in
// oneSegmentSearcher. It always builds fresh wrappers: reuse is an orthogonal
// optimization, pinned by TestNewSearcherIgnoresPrev.
type oneSegmentAlgorithm struct{ inner agent.Algorithm }

func (a oneSegmentAlgorithm) Name() string { return a.inner.Name() }

func (a oneSegmentAlgorithm) NewSearcher(_ agent.Searcher, rng *xrand.Stream, agentIndex int) agent.Searcher {
	return &oneSegmentSearcher{inner: a.inner.NewSearcher(nil, rng, agentIndex)}
}

// registryAlgorithms builds every registered scenario's algorithm for k=4
// agents, plus, when withDelayed is set, a delayed-start wrapper around
// known-k (the wrapper has its own EmitSortie: a pause batch, then
// delegation).
func registryAlgorithms(t *testing.T, withDelayed bool) map[string]agent.Algorithm {
	t.Helper()
	params := scenario.DefaultParams()
	params.D = 5 // known-d needs the distance filled in
	algos := make(map[string]agent.Algorithm)
	for _, name := range scenario.Names() {
		alg, err := scenario.Algorithm(name, params, 4)
		if err != nil {
			t.Fatalf("scenario %q: %v", name, err)
		}
		algos[name] = alg
	}
	if withDelayed {
		delayed, err := agent.NewDelayed(algos["known-k"], 13)
		if err != nil {
			t.Fatal(err)
		}
		algos["delayed(known-k)"] = delayed
	}
	return algos
}

// TestRunMatchesRunAnalytic checks, for every scenario in the registry plus a
// delayed-start wrapper, that the engine fed full batches, the engine fed
// one-segment batches and the exact engine produce identical Results.
func TestRunMatchesRunAnalytic(t *testing.T) {
	t.Parallel()

	treasures := []grid.Point{{X: 4, Y: 1}, {X: -3, Y: -2}}
	for name, alg := range registryAlgorithms(t, true) {
		for _, treasure := range treasures {
			for _, seed := range []uint64{3, 11} {
				inst := sim.Instance{Algorithm: alg, NumAgents: 4, Treasure: treasure}
				opts := sim.Options{Seed: seed, MaxTime: 1 << 12}

				batch, err := sim.Run(inst, opts)
				if err != nil {
					t.Fatalf("%s treasure=%v seed=%d: batch run: %v", name, treasure, seed, err)
				}

				oneInst := inst
				oneInst.Algorithm = oneSegmentAlgorithm{inner: alg}
				one, err := sim.Run(oneInst, opts)
				if err != nil {
					t.Fatalf("%s treasure=%v seed=%d: one-segment run: %v", name, treasure, seed, err)
				}
				if !reflect.DeepEqual(batch, one) {
					t.Errorf("%s treasure=%v seed=%d: full batches differ from one-segment batches:\n batch %+v\n one   %+v",
						name, treasure, seed, batch, one)
				}

				exact, err := sim.RunExact(inst, opts, nil)
				if err != nil {
					t.Fatalf("%s treasure=%v seed=%d: exact run: %v", name, treasure, seed, err)
				}
				if !reflect.DeepEqual(batch, exact) {
					t.Errorf("%s treasure=%v seed=%d: batch path differs from exact engine:\n batch %+v\n exact %+v",
						name, treasure, seed, batch, exact)
				}
			}
		}
	}
}

// firstSegments pulls batches from s until it holds n segments or the
// schedule ends, and returns at most n of them.
func firstSegments(s agent.Searcher, n int) []trajectory.Seg {
	var segs []trajectory.Seg
	for len(segs) < n {
		var ok bool
		if segs, ok = s.EmitSortie(segs); !ok {
			break
		}
	}
	if len(segs) > n {
		segs = segs[:n]
	}
	return segs
}

// TestNewSearcherIgnoresPrev pins the build-or-reset contract of
// agent.Algorithm.NewSearcher: whatever the caller hands back as prev — nil,
// one of the algorithm's own searchers part-way through its schedule, or a
// searcher of any other algorithm — the result emits exactly what a fresh
// searcher on an identically seeded stream emits. Pooled engines hand their
// searchers across trials and cells, so a prev from another algorithm
// happens in production. As in the engine, prev's stream is reseeded in
// place and passed back in.
func TestNewSearcherIgnoresPrev(t *testing.T) {
	t.Parallel()

	const n, seed = 40, 5
	algos := registryAlgorithms(t, true)
	names := make([]string, 0, len(algos))
	for name := range algos {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		alg := algos[name]
		for idx := 0; idx < 3; idx++ {
			want := firstSegments(alg.NewSearcher(nil, xrand.NewStream(seed, uint64(idx)), idx), n)
			if len(want) == 0 {
				t.Fatalf("%s agent %d: fresh searcher emitted nothing", name, idx)
			}
			check := func(label string, prev agent.Searcher, rng *xrand.Stream) {
				t.Helper()
				rng.Reset(seed, uint64(idx))
				got := firstSegments(alg.NewSearcher(prev, rng, idx), n)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s agent %d, prev %s: first %d segments differ from a fresh searcher's:\n got  %v\n want %v",
						name, idx, label, n, got, want)
				}
			}
			check("nil", nil, xrand.NewStream(0))
			for _, other := range names {
				// Every prev is part-way through its own schedule, on a
				// different seed, when it is handed back.
				rng := xrand.NewStream(seed+1, uint64(idx))
				prev := algos[other].NewSearcher(nil, rng, idx)
				firstSegments(prev, n/2)
				label := other
				if other == name {
					label = "own"
				}
				check(label, prev, rng)
			}
		}
	}
}
