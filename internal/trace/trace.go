// Package trace records agent trajectories from the exact simulation engine
// and renders them as ASCII heat maps, so example programs and debugging
// sessions can look at what a search actually did — which cells were combed
// over repeatedly near the source, which agent made the long excursion that
// found the treasure, and so on.
package trace

import (
	"fmt"
	"strings"

	"antsearch/internal/grid"
)

// Recorder collects visits; attach its Visit method to sim.RunExact.
type Recorder struct {
	// visits counts, for every node, how many times any agent stood on it.
	visits map[grid.Point]int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{visits: make(map[grid.Point]int)}
}

// Visit records one observation; it matches the visitor signature of
// sim.RunExact.
func (r *Recorder) Visit(_, _ int, p grid.Point) {
	r.visits[p]++
}

// heatRunes maps visit intensity to characters, from lightest to heaviest.
var heatRunes = []rune{'.', ':', '-', '=', '+', '*', '#', '%', '@'}

// Render draws an ASCII heat map of the visits, clipped to the given
// half-width around the source (the map covers x, y in [-radius, radius]).
// The source is marked 'S' and the treasure (if inside the clip) 'T';
// unvisited cells are blank.
func (r *Recorder) Render(radius int, treasure grid.Point) string {
	if radius < 1 {
		radius = 1
	}
	maxVisits := 0
	for _, c := range r.visits {
		if c > maxVisits {
			maxVisits = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "visit heat map (radius %d, max visits %d)\n", radius, maxVisits)
	for y := radius; y >= -radius; y-- {
		for x := -radius; x <= radius; x++ {
			p := grid.Point{X: x, Y: y}
			switch {
			case p == grid.Origin:
				b.WriteRune('S')
			case p == treasure:
				b.WriteRune('T')
			default:
				c := r.visits[p]
				if c == 0 {
					b.WriteRune(' ')
				} else {
					idx := 0
					if maxVisits > 1 {
						idx = (len(heatRunes) - 1) * (c - 1) / maxVisits
					}
					if idx >= len(heatRunes) {
						idx = len(heatRunes) - 1
					}
					b.WriteRune(heatRunes[idx])
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
