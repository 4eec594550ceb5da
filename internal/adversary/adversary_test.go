package adversary

import (
	"testing"

	"antsearch/internal/grid"
	"antsearch/internal/xrand"
)

func TestUniformRing(t *testing.T) {
	t.Parallel()

	if _, err := NewUniformRing(0); err == nil {
		t.Error("NewUniformRing(0) should fail")
	}
	s, err := NewUniformRing(15)
	if err != nil {
		t.Fatal(err)
	}
	if s.Distance() != 15 {
		t.Errorf("Distance = %d", s.Distance())
	}
	seen := make(map[grid.Point]bool)
	for trial := 0; trial < 300; trial++ {
		p := s.Place(trial, xrand.NewStream(7, uint64(trial)))
		if p.L1() != 15 {
			t.Fatalf("placed treasure at distance %d, want 15", p.L1())
		}
		seen[p] = true
	}
	if len(seen) < 20 {
		t.Errorf("only %d distinct placements in 300 trials; should spread over the ring", len(seen))
	}

	// Placement is a pure function of (trial, stream).
	a := s.Place(4, xrand.NewStream(7, 4))
	b := s.Place(4, xrand.NewStream(7, 4))
	if a != b {
		t.Error("placement is not reproducible")
	}
}
