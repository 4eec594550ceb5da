package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"antsearch/internal/scenario"
	"antsearch/internal/sim"
)

// fixture encodes genuine rows for the first few cells of a tiny grid, the
// way antserve streams them.
func fixture(t *testing.T, n int, cached bool) ([]scenario.Cell, []sim.TrialStats, []byte) {
	t.Helper()
	cells, err := tinyOf(5).grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells = cells[:n]
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	var all []sim.TrialStats
	for i, c := range cells {
		st, err := scenario.Runner{Workers: 1}.RunOne(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, st)
		if err := enc.Encode(sweepRow{Index: i, Scenario: c.Scenario, K: c.K, D: c.D,
			Trials: c.Trials, Seed: c.Seed, Cached: cached, Stats: &st}); err != nil {
			t.Fatal(err)
		}
	}
	return cells, all, body.Bytes()
}

func TestOutputCheckAcceptsGenuineRows(t *testing.T) {
	cells, all, body := fixture(t, 3, false)
	r, err := parseResponse(body, cells, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.rows {
		if err := checkStats(row.Stats, all[i]); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
}

func TestOutputCheckRejectsTamperedRow(t *testing.T) {
	cells, all, body := fixture(t, 3, false)
	// Change one aggregate in the second row's stats.
	lines := bytes.SplitAfter(body, []byte("\n"))
	lines[1] = bytes.Replace(lines[1], []byte(`"Found":1`), []byte(`"Found":0`), 1)
	tampered := bytes.Join(lines, nil)
	if bytes.Equal(tampered, body) {
		t.Fatal("fixture row has no Found field to tamper with")
	}
	r, err := parseResponse(tampered, cells, false)
	if err != nil {
		t.Fatal(err) // still well-formed: only the stats check can catch it
	}
	if err := checkStats(r.rows[1].Stats, all[1]); err == nil {
		t.Fatal("a tampered stats object passed the check")
	}
	// A row for the wrong cell fails the structural check.
	swapped := bytes.Replace(body, []byte(`"k":1,`), []byte(`"k":2,`), 1)
	if _, err := parseResponse(swapped, cells, false); err == nil {
		t.Fatal("a row with the wrong coordinates passed")
	}
}

func TestOutputCheckRejectsWrongCachedFlag(t *testing.T) {
	cells, _, body := fixture(t, 3, false)
	if _, err := parseResponse(body, cells, true); err == nil {
		t.Fatal("fresh rows passed as cached")
	}
	_, _, hot := fixture(t, 3, true)
	if _, err := parseResponse(hot, cells, false); err == nil {
		t.Fatal("cached rows passed as fresh")
	}
}

func TestReplayCheck(t *testing.T) {
	cells, _, fill := fixture(t, 2, false)
	_, _, replay := fixture(t, 2, true)
	f, err := parseResponse(fill, cells, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := parseResponse(replay, cells, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.lines {
		if err := checkReplay(r.lines[i], f.lines[i]); err != nil {
			t.Fatalf("genuine replay of row %d rejected: %v", i, err)
		}
	}
	if err := checkReplay(f.lines[0], f.lines[0]); err == nil {
		t.Fatal("a row not flagged cached passed as a replay")
	}
	tampered := bytes.Replace(r.lines[0], []byte(`"Trials":1`), []byte(`"Trials":2`), 1)
	if err := checkReplay(tampered, f.lines[0]); err == nil {
		t.Fatal("a tampered replayed row passed")
	}
}

func TestParseResponseRejectsBrokenStreams(t *testing.T) {
	cells, _, body := fixture(t, 2, false)
	cases := map[string][]byte{
		"missing row":      body[:bytes.IndexByte(body, '\n')+1],
		"error row":        append(append([]byte{}, body...), `{"index":2,"error":"boom"}`+"\n"...),
		"unterminated":     body[:len(body)-1],
		"stray progress":   append([]byte(`{"type":"progress","index":9,"scenario":"known-k","k":1,"d":4}`+"\n"), body...),
		"not json":         append([]byte("nope\n"), body...),
		"extra result":     append(append([]byte{}, body...), body[:bytes.IndexByte(body, '\n')+1]...),
		"unknown row type": append([]byte(`{"type":"debug"}`+"\n"), body...),
	}
	for name, b := range cases {
		if _, err := parseResponse(b, cells, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	progress := append([]byte(`{"type":"progress","index":1,"scenario":"known-k","k":2,"d":4}`+"\n"), body...)
	if _, err := parseResponse(progress, cells, false); err != nil {
		t.Fatalf("a progress row for a grid cell was rejected: %v", err)
	}
	if got := resultLines(progress); !bytes.Equal(got, body) {
		t.Fatalf("resultLines kept a progress row: %q", got)
	}
}

func TestReportSectionsAndCells(t *testing.T) {
	report := "==== E1: t ====\nclaim: c\n\nE1: title\nD    k\n---  --\n16   1\n32   1\nnote: trials per cell: 60; x\n\ncheck [PASS] a: b\n\n" +
		"==== E2: u ====\nclaim: c\n\nE2b\nk  v\n-  -\n1  2\nnote: exact engine, 8 trials per cell; y\n\nT\nk\n-\n3\n\ncheck [FAIL] c: d\n\n"
	rows, trials := reportCells(report)
	if rows != 4 || trials != 2*60+8 {
		t.Fatalf("reportCells = %d rows, %d trials; want 4 rows, 128 trials", rows, trials)
	}
	ids, byID := sections(report)
	if strings.Join(ids, ",") != "E1,E2" || !strings.HasPrefix(byID["E2"], "E2: u") {
		t.Fatalf("sections = %v", ids)
	}
	if err := checkReport(report, nil); err == nil {
		t.Fatal("a two-experiment report passed as a full pass")
	}
}
