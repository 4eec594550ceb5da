package main

import (
	"bytes"
	"testing"

	"antsearch/internal/cache"
)

func TestWorkloadGenerationIsDeterministic(t *testing.T) {
	for name := range workloads {
		if name == reproduce {
			continue
		}
		a, _ := newWorkload(name, 42)
		b, _ := newWorkload(name, 42)
		c, _ := newWorkload(name, 43)
		differs := false
		for client := 0; client < a.spec.clients; client++ {
			for j := 0; j < 50; j++ {
				x, y, z := a.opSweep(client, j).body(), b.opSweep(client, j).body(), c.opSweep(client, j).body()
				if !bytes.Equal(x, y) {
					t.Fatalf("%s: op %d of client %d differs between two generations from seed 42", name, j, client)
				}
				differs = differs || !bytes.Equal(x, z)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 generate the same ops", name)
		}
		if !bytes.Equal(a.warmSweep().body(), b.warmSweep().body()) {
			t.Errorf("%s: warm-up op is not deterministic", name)
		}
	}
}

func TestFreshSeedsAreDisjointPerClient(t *testing.T) {
	for _, name := range []string{coldCells, tinyGrid} {
		for _, seed := range []uint64{0, 1, 7, 1 << 40} {
			w, _ := newWorkload(name, seed)
			owner := map[uint64]int{w.warmSweep().grid.Seed: -1}
			for client := 0; client < w.spec.clients; client++ {
				for j := 0; j < 1000; j++ {
					s := w.opSweep(client, j).grid.Seed
					if prev, ok := owner[s]; ok {
						t.Fatalf("%s seed %d: op %d of client %d reuses seed %d of client %d", name, seed, j, client, s, prev)
					}
					owner[s] = client
				}
			}
		}
	}
}

func TestGridShapes(t *testing.T) {
	cold, _ := newWorkload(coldCells, 3)
	cells, err := cold.opSweep(0, 0).grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 || cells[0].Trials <= 1024 {
		t.Fatalf("cold-cells op: %d cells of %d trials, want 8 cells of more than 1024", len(cells), cells[0].Trials)
	}
	tiny, _ := newWorkload(tinyGrid, 3)
	if cells, err = tiny.opSweep(1, 0).grid.Cells(); err != nil || len(cells) != 1000 {
		t.Fatalf("tiny-grid op: %d cells (%v), want 1000", len(cells), err)
	}
}

// TestHotReplayFitsTheCache checks that the fill pass stores exactly what
// the server's default cache holds, and that every replayed op is one of
// the stored grids, so every replayed row is a hit.
func TestHotReplayFitsTheCache(t *testing.T) {
	w, _ := newWorkload(hotReplay, 9)
	total := 0
	stored := map[string]bool{}
	for _, f := range w.fillSweeps() {
		cells, err := f.grid.Cells()
		if err != nil {
			t.Fatal(err)
		}
		total += len(cells)
		stored[string(f.body())] = true
	}
	if total != cache.DefaultCapacity {
		t.Fatalf("fill pass stores %d cells, the cache holds %d", total, cache.DefaultCapacity)
	}
	if !stored[string(w.warmSweep().body())] {
		t.Fatal("the warm-up op is not a stored grid")
	}
	seen := map[string]bool{}
	for c := 0; c < w.spec.clients; c++ {
		for j := 0; j < 200; j++ {
			b := string(w.opSweep(c, j).body())
			if !stored[b] {
				t.Fatalf("op %d of client %d replays a grid the fill pass did not store", j, c)
			}
			seen[b] = true
		}
	}
	if len(seen) != hotGrids {
		t.Fatalf("200 ops per client replay %d distinct grids, want all %d", len(seen), hotGrids)
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := newWorkload("warm-cells", 1); err == nil {
		t.Fatal("an unknown workload name must be an error")
	}
}
