package fault

import (
	"strings"
	"testing"

	"antsearch/internal/xrand"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero plan", Plan{}, true},
		{"crash only", Plan{CrashProb: 0.5, CrashBy: 10}, true},
		{"stall only", Plan{StallProb: 0.5, StallBy: 10, StallDur: 4}, true},
		{"both", Plan{CrashProb: 1, CrashBy: 1, StallProb: 1, StallBy: 1, StallDur: 1}, true},
		{"crash prob negative", Plan{CrashProb: -0.1, CrashBy: 10}, false},
		{"crash prob above one", Plan{CrashProb: 1.5, CrashBy: 10}, false},
		{"stall prob nan", Plan{StallProb: nan(), StallBy: 10, StallDur: 1}, false},
		{"crash without horizon", Plan{CrashProb: 0.5}, false},
		{"stall without horizon", Plan{StallProb: 0.5, StallDur: 1}, false},
		{"stall without duration", Plan{StallProb: 0.5, StallBy: 10}, false},
		{"negative knob", Plan{CrashBy: -1}, false},
		{"huge knob", Plan{CrashProb: 0.5, CrashBy: maxDuration + 1}, false},
		// Horizons without probabilities are inert but legal: a sweep can
		// hold CrashBy fixed while varying CrashProb through zero.
		{"inert horizons", Plan{CrashBy: 10, StallBy: 10, StallDur: 10}, true},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestDrawDeterministic(t *testing.T) {
	plan := Plan{CrashProb: 0.5, CrashBy: 100, StallProb: 0.5, StallBy: 100, StallDur: 20}
	var a, b xrand.Stream
	a.Reset(42, 7)
	b.Reset(42, 7)
	for i := 0; i < 100; i++ {
		sa, sb := plan.Draw(&a), plan.Draw(&b)
		if sa != sb {
			t.Fatalf("draw %d: schedules diverged: %+v vs %+v", i, sa, sb)
		}
	}
}

func TestDrawBounds(t *testing.T) {
	plan := Plan{CrashProb: 0.7, CrashBy: 50, StallProb: 0.7, StallBy: 30, StallDur: 5}
	var rng xrand.Stream
	rng.Reset(1, 2)
	sawCrash, sawNoCrash, sawStall, sawNoStall := false, false, false, false
	for i := 0; i < 1000; i++ {
		s := plan.Draw(&rng)
		if s.CrashAt != None {
			sawCrash = true
			if s.CrashAt < 0 || s.CrashAt >= plan.CrashBy {
				t.Fatalf("crash time %d outside [0, %d)", s.CrashAt, plan.CrashBy)
			}
		} else {
			sawNoCrash = true
		}
		if s.StallAt != None {
			sawStall = true
			if s.StallAt < 0 || s.StallAt >= plan.StallBy {
				t.Fatalf("stall start %d outside [0, %d)", s.StallAt, plan.StallBy)
			}
			if s.StallDur < 1 || s.StallDur > plan.StallDur {
				t.Fatalf("stall duration %d outside [1, %d]", s.StallDur, plan.StallDur)
			}
		} else {
			sawNoStall = true
			if s.StallDur != 0 {
				t.Fatalf("absent stall carries duration %d", s.StallDur)
			}
		}
	}
	if !sawCrash || !sawNoCrash || !sawStall || !sawNoStall {
		t.Fatalf("1000 draws at p=0.7 did not exercise all outcomes (crash %v/%v, stall %v/%v)",
			sawCrash, sawNoCrash, sawStall, sawNoStall)
	}
}

func TestZeroPlanDrawsNothing(t *testing.T) {
	// The engines rely on this: a fault-free plan must neither produce events
	// nor consume randomness, so attaching Plan{} is bit-identical to nil.
	var plan Plan
	var rng, ref xrand.Stream
	rng.Reset(9, 9)
	ref.Reset(9, 9)
	for i := 0; i < 10; i++ {
		if s := plan.Draw(&rng); s != NoFaults() {
			t.Fatalf("zero plan drew %+v", s)
		}
	}
	if rng != ref {
		t.Fatal("zero plan consumed randomness")
	}
	if !plan.IsZero() {
		t.Fatal("zero plan not reported as zero")
	}
}

func TestCertainPlan(t *testing.T) {
	plan := Plan{CrashProb: 1, CrashBy: 1, StallProb: 1, StallBy: 1, StallDur: 1}
	var rng xrand.Stream
	rng.Reset(3, 3)
	for i := 0; i < 50; i++ {
		s := plan.Draw(&rng)
		if s.CrashAt != 0 || s.StallAt != 0 || s.StallDur != 1 {
			t.Fatalf("certain unit plan drew %+v", s)
		}
	}
}

func TestStringIdentity(t *testing.T) {
	if got := (Plan{}).String(); got != "none" {
		t.Fatalf("zero plan String() = %q, want \"none\"", got)
	}
	a := Plan{CrashProb: 0.25, CrashBy: 64, StallProb: 0.5, StallBy: 32, StallDur: 8}
	b := a
	if a.String() != b.String() {
		t.Fatal("identical plans render differently")
	}
	c := a
	c.CrashBy = 65
	if a.String() == c.String() {
		t.Fatalf("distinct plans render identically: %q", a.String())
	}
	for _, part := range []string{"0.25", "64", "0.5", "32", "8"} {
		if !strings.Contains(a.String(), part) {
			t.Errorf("String() %q missing %q", a.String(), part)
		}
	}
}
