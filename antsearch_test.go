package antsearch_test

import (
	"context"
	"strings"
	"testing"

	"antsearch"
)

func TestPublicAlgorithmConstructors(t *testing.T) {
	t.Parallel()

	type ctor struct {
		name string
		make func() (antsearch.Algorithm, error)
		bad  func() (antsearch.Algorithm, error)
	}
	ctors := []ctor{
		{"known-k", func() (antsearch.Algorithm, error) { return antsearch.KnownK(8) },
			func() (antsearch.Algorithm, error) { return antsearch.KnownK(0) }},
		{"rho-approx", func() (antsearch.Algorithm, error) { return antsearch.RhoApprox(8, 2) },
			func() (antsearch.Algorithm, error) { return antsearch.RhoApprox(8, 0.5) }},
		{"uniform", func() (antsearch.Algorithm, error) { return antsearch.Uniform(0.5) },
			func() (antsearch.Algorithm, error) { return antsearch.Uniform(0) }},
		{"harmonic", func() (antsearch.Algorithm, error) { return antsearch.Harmonic(0.5) },
			func() (antsearch.Algorithm, error) { return antsearch.Harmonic(3) }},
		{"harmonic-restart", func() (antsearch.Algorithm, error) { return antsearch.HarmonicRestart(0.5) },
			func() (antsearch.Algorithm, error) { return antsearch.HarmonicRestart(-1) }},
		{"approx-hedge", func() (antsearch.Algorithm, error) { return antsearch.ApproxHedge(64, 0.5) },
			func() (antsearch.Algorithm, error) { return antsearch.ApproxHedge(64, 2) }},
		{"levy", func() (antsearch.Algorithm, error) { return antsearch.LevyFlight(2) },
			func() (antsearch.Algorithm, error) { return antsearch.LevyFlight(0.5) }},
		{"sector-sweep", func() (antsearch.Algorithm, error) { return antsearch.SectorSweep(4) },
			func() (antsearch.Algorithm, error) { return antsearch.SectorSweep(0) }},
		{"known-d", func() (antsearch.Algorithm, error) { return antsearch.KnownD(10) },
			func() (antsearch.Algorithm, error) { return antsearch.KnownD(0) }},
	}
	for _, c := range ctors {
		alg, err := c.make()
		if err != nil {
			t.Errorf("%s: valid constructor failed: %v", c.name, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("%s: empty algorithm name", c.name)
		}
		if _, err := c.bad(); err == nil {
			t.Errorf("%s: invalid constructor arguments accepted", c.name)
		}
	}

	// Zero-argument baselines.
	if antsearch.SingleSpiral().Name() == "" || antsearch.RandomWalk().Name() == "" {
		t.Error("baseline names empty")
	}
}

func TestSearchEndToEnd(t *testing.T) {
	t.Parallel()

	alg, err := antsearch.Uniform(0.5)
	if err != nil {
		t.Fatal(err)
	}
	treasure := antsearch.Point{X: 12, Y: -7}
	res, err := antsearch.Search(alg, 8, treasure, antsearch.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("treasure not found")
	}
	if res.Time < antsearch.Dist(antsearch.Origin, treasure) {
		t.Errorf("found at time %d, below the distance %d", res.Time, antsearch.Dist(antsearch.Origin, treasure))
	}

	// Same seed, same answer; the public API is deterministic.
	again, err := antsearch.Search(alg, 8, treasure, antsearch.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Errorf("identical seeds produced different results: %+v vs %+v", res, again)
	}

	// The cap is honoured.
	capped, err := antsearch.Search(antsearch.RandomWalk(), 1, antsearch.Point{X: 30, Y: 30},
		antsearch.WithSeed(1), antsearch.WithMaxTime(500))
	if err != nil {
		t.Fatal(err)
	}
	if capped.Found || !capped.Capped || capped.Time != 500 {
		t.Errorf("capped search misreported: %+v", capped)
	}
}

func TestSearchWithTrace(t *testing.T) {
	t.Parallel()

	alg, err := antsearch.KnownK(4)
	if err != nil {
		t.Fatal(err)
	}
	treasure := antsearch.Point{X: 6, Y: 3}
	tr, err := antsearch.SearchWithTrace(alg, 4, treasure, antsearch.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Result.Found {
		t.Fatal("treasure not found")
	}
	if tr.Coverage.DistinctNodes() == 0 {
		t.Error("coverage recorded no visits")
	}
	if tr.Coverage.OverlapFraction() < 0 || tr.Coverage.OverlapFraction() > 1 {
		t.Errorf("overlap fraction out of range: %v", tr.Coverage.OverlapFraction())
	}
	art := tr.RenderTrace(8, treasure)
	if !strings.Contains(art, "S") {
		t.Error("rendered trace missing the source marker")
	}
	if _, cells, _ := strings.Cut(art, "\n"); !strings.ContainsAny(cells, ".:-=+*#%@") {
		t.Error("rendered trace shows no visited cell: the recorder saw no visits")
	}
}

func TestEstimateTime(t *testing.T) {
	t.Parallel()

	est, err := antsearch.EstimateTime(context.Background(), antsearch.KnownKFactory(), 8, 20,
		antsearch.WithSeed(3), antsearch.WithTrials(20), antsearch.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials != 20 || est.Found != 20 {
		t.Errorf("estimate: %+v", est)
	}
	lb := antsearch.LowerBound(20, 8)
	if lb != 20+400.0/8 {
		t.Errorf("LowerBound = %v", lb)
	}
	if est.MeanTime() < 20 {
		t.Errorf("mean time %v below the distance", est.MeanTime())
	}
	ratio := est.MeanTime() / lb
	if ratio <= 0 || ratio > 60 {
		t.Errorf("known-k competitive ratio %v outside the plausible range", ratio)
	}
	if sp := antsearch.Speedup(100, 20); sp != 5 {
		t.Errorf("Speedup = %v", sp)
	}

	// Invalid distance propagates an error.
	if _, err := antsearch.EstimateTime(context.Background(), antsearch.KnownKFactory(), 8, 0); err == nil {
		t.Error("EstimateTime with d=0 should fail")
	}
}

func TestFactories(t *testing.T) {
	t.Parallel()

	if _, err := antsearch.UniformFactory(0); err == nil {
		t.Error("UniformFactory(0) should fail")
	}
	if _, err := antsearch.HarmonicRestartFactory(0); err == nil {
		t.Error("HarmonicRestartFactory(0) should fail")
	}
	if _, err := antsearch.RhoApproxFactory(0.5, 1); err == nil {
		t.Error("RhoApproxFactory with rho < 1 should fail")
	}
	if _, err := antsearch.ApproxHedgeFactory(7); err == nil {
		t.Error("ApproxHedgeFactory with epsilon > 1 should fail")
	}
	uf, err := antsearch.UniformFactory(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if uf(1) != uf(999) {
		t.Error("uniform factory must ignore k")
	}
	if antsearch.KnownKFactory()(4).Name() == "" {
		t.Error("known-k factory produced an unnamed algorithm")
	}
}

func TestSearchRejectsEstimationOptions(t *testing.T) {
	t.Parallel()

	alg, err := antsearch.Uniform(0.5)
	if err != nil {
		t.Fatal(err)
	}
	treasure := antsearch.Point{X: 10}
	if _, err := antsearch.Search(alg, 4, treasure, antsearch.WithTrials(10)); err == nil {
		t.Error("Search with WithTrials should fail: the option only applies to EstimateTime")
	}
	if _, err := antsearch.Search(alg, 4, treasure, antsearch.WithWorkers(2)); err == nil {
		t.Error("Search with WithWorkers should fail: the option only applies to EstimateTime")
	}
	if _, err := antsearch.SearchWithTrace(alg, 4, treasure, antsearch.WithTrials(10)); err == nil {
		t.Error("SearchWithTrace with WithTrials should fail")
	}
	// Valid options still work.
	if _, err := antsearch.Search(alg, 4, treasure, antsearch.WithSeed(2), antsearch.WithMaxTime(10000)); err != nil {
		t.Errorf("Search with seed and max-time options: %v", err)
	}
}

func TestScenarioRegistryFacade(t *testing.T) {
	t.Parallel()

	names := antsearch.Scenarios()
	if len(names) < 11 {
		t.Fatalf("only %d scenarios registered: %v", len(names), names)
	}
	factory, err := antsearch.ScenarioFactory("known-k", antsearch.ScenarioParams{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := antsearch.EstimateTime(context.Background(), factory, 4, 10,
		antsearch.WithSeed(3), antsearch.WithTrials(8))
	if err != nil {
		t.Fatal(err)
	}
	if est.Found != 8 {
		t.Errorf("known-k found the treasure in %d/8 trials", est.Found)
	}
	alg, err := antsearch.ScenarioAlgorithm("uniform", antsearch.ScenarioParams{Epsilon: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() == "" {
		t.Error("scenario algorithm has no name")
	}
	if _, err := antsearch.ScenarioFactory("bogus", antsearch.ScenarioParams{}); err == nil {
		t.Error("unknown scenario should fail")
	}
}
