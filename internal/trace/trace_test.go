package trace

import (
	"strings"
	"testing"

	"antsearch/internal/core"
	"antsearch/internal/grid"
	"antsearch/internal/sim"
)

func TestRecorderCounts(t *testing.T) {
	t.Parallel()

	r := NewRecorder()
	if len(r.visits) != 0 {
		t.Error("fresh recorder should be empty")
	}
	r.Visit(0, 0, grid.Origin)
	r.Visit(0, 1, grid.Point{X: 1})
	r.Visit(1, 0, grid.Origin)

	if got := r.visits[grid.Origin]; got != 2 {
		t.Errorf("visits of the origin = %d, want 2", got)
	}
	if got := len(r.visits); got != 2 {
		t.Errorf("distinct nodes = %d, want 2", got)
	}
}

func TestRenderMarksSourceAndTreasure(t *testing.T) {
	t.Parallel()

	r := NewRecorder()
	r.Visit(0, 0, grid.Origin)
	r.Visit(0, 1, grid.Point{X: 1})
	r.Visit(0, 2, grid.Point{X: 1, Y: 1})
	out := r.Render(2, grid.Point{X: 2, Y: 2})

	if !strings.Contains(out, "S") {
		t.Error("render missing source marker")
	}
	if !strings.Contains(out, "T") {
		t.Error("render missing treasure marker")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header plus 5 rows for radius 2.
	if len(lines) != 6 {
		t.Errorf("render has %d lines, want 6", len(lines))
	}
	for _, l := range lines[1:] {
		if len([]rune(l)) != 5 {
			t.Errorf("row %q has %d cells, want 5", l, len([]rune(l)))
		}
	}

	// Degenerate radius is clamped rather than panicking.
	if small := r.Render(0, grid.Origin); !strings.Contains(small, "S") {
		t.Error("clamped render missing source")
	}
}

func TestRecorderWithExactEngine(t *testing.T) {
	t.Parallel()

	alg, err := core.NewKnownK(2)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder()
	inst := sim.Instance{
		Algorithm: alg,
		NumAgents: 2,
		Treasure:  grid.Point{X: 4, Y: 2},
	}
	res, err := sim.RunExact(inst, sim.Options{Seed: 3}, r.Visit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("treasure not found")
	}
	if len(r.visits) == 0 {
		t.Error("no visits recorded")
	}
	if r.visits[grid.Origin] == 0 {
		t.Error("source never recorded")
	}
	out := r.Render(6, inst.Treasure)
	if !strings.Contains(out, "heat map") {
		t.Error("missing header")
	}
}
