package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"antsearch/internal/scenario"
	"antsearch/internal/sim"
)

// wireRow is one NDJSON line of a /sweep response as the checks read it.
// Stats stays raw: the check compares its bytes, not its decoded value.
type wireRow struct {
	Type     string          `json:"type"`
	Index    int             `json:"index"`
	Scenario string          `json:"scenario"`
	K        int             `json:"k"`
	D        int             `json:"d"`
	Trials   int             `json:"trials"`
	Seed     uint64          `json:"seed"`
	Cached   bool            `json:"cached"`
	Stats    json.RawMessage `json:"stats"`
	Error    string          `json:"error"`
}

// response is a checked /sweep body: its result rows in order and their raw
// lines.
type response struct {
	rows  []wireRow
	lines [][]byte
}

// parseResponse checks a /sweep body against the request's cells: one
// result row per cell, in cell order, with the cell's coordinates, the
// expected "cached" flag and a stats object; progress rows may only refer
// to cells of the grid; no error row.
func parseResponse(body []byte, cells []scenario.Cell, wantCached bool) (response, error) {
	var r response
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return r, fmt.Errorf("response ends in an unterminated line")
		}
		line := body[:i]
		body = body[i+1:]
		var row wireRow
		if err := json.Unmarshal(line, &row); err != nil {
			return r, fmt.Errorf("row %d: %w", len(r.rows), err)
		}
		if row.Error != "" {
			return r, fmt.Errorf("error row after %d rows: %s", len(r.rows), row.Error)
		}
		if row.Type == "progress" {
			if row.Index < 0 || row.Index >= len(cells) || !sameCell(row, cells[row.Index], false) {
				return r, fmt.Errorf("progress row for index %d does not match the grid", row.Index)
			}
			continue
		}
		if row.Type != "" {
			return r, fmt.Errorf("row of unknown type %q", row.Type)
		}
		n := len(r.rows)
		if n >= len(cells) {
			return r, fmt.Errorf("more result rows than the grid's %d cells", len(cells))
		}
		if row.Index != n || !sameCell(row, cells[n], true) {
			return r, fmt.Errorf("row %d is %s k=%d D=%d seed=%d, want cell %d (%s k=%d D=%d seed=%d)",
				n, row.Scenario, row.K, row.D, row.Seed, n, cells[n].Scenario, cells[n].K, cells[n].D, cells[n].Seed)
		}
		if row.Cached != wantCached {
			return r, fmt.Errorf("row %d has cached=%v, want %v", n, row.Cached, wantCached)
		}
		if len(row.Stats) == 0 {
			return r, fmt.Errorf("row %d has no stats", n)
		}
		r.rows = append(r.rows, row)
		r.lines = append(r.lines, line)
	}
	if len(r.rows) != len(cells) {
		return r, fmt.Errorf("%d result rows for %d cells", len(r.rows), len(cells))
	}
	return r, nil
}

func sameCell(row wireRow, c scenario.Cell, full bool) bool {
	ok := row.Scenario == c.Scenario && row.K == c.K && row.D == c.D
	if full {
		ok = ok && row.Trials == c.Trials && row.Seed == c.Seed
	}
	return ok
}

// checkStats reports whether a row's raw stats are byte-identical to the
// encoding of the aggregate computed in-process.
func checkStats(got json.RawMessage, want sim.TrialStats) error {
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, b) {
		return fmt.Errorf("stats differ from the in-process aggregate:\n got %.200s\nwant %.200s", got, b)
	}
	return nil
}

var (
	cachedTrue  = []byte(`,"cached":true,`)
	cachedFalse = []byte(`,"cached":false,`)
)

// checkReplay reports whether a replayed row equals the row the fill pass
// stored, byte for byte, except that it is flagged cached.
func checkReplay(line, fill []byte) error {
	if bytes.Count(line, cachedTrue) != 1 {
		return fmt.Errorf("replayed row is not flagged cached: %.120s", line)
	}
	if !bytes.Equal(bytes.Replace(line, cachedTrue, cachedFalse, 1), fill) {
		return fmt.Errorf("replayed row differs from the stored row:\n got %.200s\nwant %.200s", line, fill)
	}
	return nil
}

var progressPrefix = []byte(`{"type":"progress"`)

// resultLines drops progress rows from a body, keeping result rows in order.
// Progress rows of cells computed side by side interleave in any order, so
// two bodies are compared by their result rows.
func resultLines(body []byte) []byte {
	var out []byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			i = len(body) - 1
		}
		line := body[:i+1]
		body = body[i+1:]
		if !bytes.HasPrefix(line, progressPrefix) {
			out = append(out, line...)
		}
	}
	return out
}
