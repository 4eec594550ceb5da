package main

import (
	"bytes"
	"strings"
	"testing"

	"antsearch/internal/cache"
)

func TestParseInts(t *testing.T) {
	t.Parallel()

	got, err := parseInts(" 1, 4 ,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 16 {
		t.Errorf("parseInts = %v", got)
	}
	for _, bad := range []string{"", "a,b", "0", "-3", ", ,"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) should fail", bad)
		}
	}
}

func TestSweepASCII(t *testing.T) {
	t.Parallel()

	var out bytes.Buffer
	err := run([]string{"-algs", "known-k", "-k", "1,4", "-d", "12", "-trials", "5", "-seed", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"algorithm", "known-k", "speed-up", "D + D²/k"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Two k values → two data rows plus header/separator/note.
	if rows := strings.Count(text, "known-k"); rows != 2 {
		t.Errorf("expected 2 data rows, found %d", rows)
	}
}

func TestSweepCSVAndMarkdown(t *testing.T) {
	t.Parallel()

	for _, format := range []string{"csv", "markdown"} {
		var out bytes.Buffer
		err := run([]string{"-algs", "single-spiral", "-k", "1", "-d", "8",
			"-trials", "3", "-format", format}, &out)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s produced no output", format)
		}
	}
}

func TestSweepMultipleAlgorithms(t *testing.T) {
	t.Parallel()

	var out bytes.Buffer
	err := run([]string{"-algs", "known-k,known-d,harmonic-restart", "-k", "2", "-d", "10",
		"-trials", "4", "-max-time", "100000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"known-k", "known-d", "harmonic-restart"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	t.Parallel()

	cases := [][]string{
		{"-k", "zero"},
		{"-d", "-5"},
		{"-trials", "0"},
		{"-trials", "-7"},
		{"-max-time", "-1"},
		{"-workers", "-2"},
		{"-algs", "unknown-strategy"},
		{"-checkpoint-every", "-1"},
		{"-checkpoint-every", "4"}, // no -checkpoint-dir to persist into
		{"-format", "xml"},
		{"-bad-flag"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// TestSweepErrorMessagesNameTheFlag pins the CLI-boundary validation: a bad
// value must be reported against the flag the user typed, not as a deep
// "sim:"- or "scenario:"-prefixed engine error.
func TestSweepErrorMessagesNameTheFlag(t *testing.T) {
	t.Parallel()

	cases := map[string][]string{
		"-trials":           {"-trials", "-7"},
		"-max-time":         {"-max-time", "-1"},
		"-workers":          {"-workers", "-2"},
		"-k":                {"-k", "-3"},
		"-d":                {"-d", "0"},
		"-checkpoint-every": {"-checkpoint-every", "-1"},
		"-checkpoint-dir":   {"-checkpoint-every", "2"},
	}
	for flagName, args := range cases {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("args %v: expected an error", args)
			continue
		}
		if !strings.Contains(err.Error(), flagName) {
			t.Errorf("args %v: error %q does not name %s", args, err, flagName)
		}
		if strings.HasPrefix(err.Error(), "sim:") || strings.HasPrefix(err.Error(), "scenario:") {
			t.Errorf("args %v: error %q leaked from the engine instead of the CLI boundary", args, err)
		}
	}
}

// TestSweepCoversAllScenarioNames drives the real CLI path (run → Grid →
// registry) over every registered scenario, so a registry entry the sweep
// tool cannot resolve fails here.
func TestSweepCoversAllScenarioNames(t *testing.T) {
	t.Parallel()

	names := []string{"known-k", "rho-approx", "uniform", "harmonic-restart", "approx-hedge",
		"single-spiral", "random-walk", "levy", "sector-sweep", "known-d", "harmonic"}
	for _, name := range names {
		var out bytes.Buffer
		err := run([]string{"-algs", name, "-k", "2", "-d", "6", "-trials", "2",
			"-max-time", "50000"}, &out)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !strings.Contains(out.String(), name) {
			t.Errorf("%s: output has no row for the scenario", name)
		}
	}
	if err := run([]string{"-algs", "bogus", "-k", "1", "-d", "6", "-trials", "1"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-algs", "levy", "-mu", "0.1", "-k", "1", "-d", "6", "-trials", "1"}, &bytes.Buffer{}); err == nil {
		t.Error("invalid levy parameter accepted")
	}
}

// TestSweepProgressAndCheckpointFlags drives the new robustness flags through
// the real CLI path: -progress streams shard lines to stderr while stdout
// keeps the table, -checkpoint-dir persists prefixes during the run, and a
// completed sweep drops its own cells' checkpoints so the directory does not
// accumulate dead state.
func TestSweepProgressAndCheckpointFlags(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	var out, errw bytes.Buffer
	err := runWith([]string{"-algs", "known-k", "-k", "2", "-d", "8",
		"-trials", "16384", "-workers", "4", "-seed", "3",
		"-progress", "-checkpoint-dir", dir, "-checkpoint-every", "1"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "known-k") {
		t.Errorf("stdout lost the table:\n%s", out.String())
	}
	if strings.Contains(out.String(), "shard") {
		t.Error("progress lines leaked into stdout")
	}
	lines := strings.Count(errw.String(), "antsweep: known-k k=2 D=8 shard ")
	if lines == 0 {
		t.Fatalf("no progress lines on stderr:\n%s", errw.String())
	}
	if !strings.Contains(errw.String(), "trials 16384/16384") {
		t.Errorf("final progress line missing:\n%s", errw.String())
	}

	// The sweep finished, so its checkpoints were dropped on the way out.
	ckpts, err := cache.OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpts.Close()
	if st := ckpts.Stats(); st.Cells != 0 {
		t.Errorf("completed sweep left %d resumable cells behind: %+v", st.Cells, st)
	}

	// Without -progress the stderr stream stays silent.
	errw.Reset()
	out.Reset()
	if err := runWith([]string{"-algs", "known-k", "-k", "2", "-d", "8", "-trials", "64"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if errw.Len() != 0 {
		t.Errorf("unsolicited stderr output:\n%s", errw.String())
	}
}
