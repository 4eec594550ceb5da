package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	t.Parallel()

	var out bytes.Buffer
	err := run([]string{"-alg", "known-k", "-k", "4", "-d", "12", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"known-k", "treasure found at time", "competitive ratio"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunTrace pins the whole -trace report, heat map included, byte for
// byte: the summary lines and every cell of the map.
func TestRunTrace(t *testing.T) {
	t.Parallel()

	var out bytes.Buffer
	err := run([]string{"-alg", "uniform", "-k", "4", "-d", "8", "-trace", "-trace-radius", "10", "-seed", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_uniform_k4_d8_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("trace output differs from testdata:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunCapReported(t *testing.T) {
	t.Parallel()

	var out bytes.Buffer
	err := run([]string{"-alg", "random-walk", "-k", "1", "-d", "40", "-max-time", "300"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NOT found within 300") {
		t.Errorf("capped run not reported:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()

	cases := [][]string{
		{"-alg", "no-such-algorithm"},
		{"-k", "0"},
		{"-k", "-4"},
		{"-d", "0"},
		{"-d", "-16"},
		{"-max-time", "-5"},
		{"-trace", "-trace-radius", "-1"},
		{"-alg", "uniform", "-eps", "0"},
		{"-alg", "levy", "-mu", "0.2"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// TestRunErrorMessagesNameTheFlag pins the CLI-boundary validation: a bad
// value must be reported against the flag the user typed, not as a deep
// "sim:"-prefixed engine error.
func TestRunErrorMessagesNameTheFlag(t *testing.T) {
	t.Parallel()

	cases := map[string][]string{
		"-k":            {"-k", "-4"},
		"-d":            {"-d", "-16"},
		"-max-time":     {"-max-time", "-5"},
		"-trace-radius": {"-trace", "-trace-radius", "-1"},
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
		if strings.HasPrefix(err.Error(), "sim:") {
			t.Errorf("args %v: error %q leaked from the engine instead of the CLI boundary", args, err)
		}
	}
}

func TestBuildAlgorithmCoversAllNames(t *testing.T) {
	t.Parallel()

	names := []string{"known-k", "rho-approx", "uniform", "harmonic", "harmonic-restart",
		"approx-hedge", "single-spiral", "random-walk", "levy", "sector-sweep", "known-d"}
	for _, name := range names {
		alg, err := buildAlgorithm(name, 4, 16, 0.5, 0.5, 2, 2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("%s: empty algorithm name", name)
		}
	}
	if _, err := buildAlgorithm("bogus", 4, 16, 0.5, 0.5, 2, 2); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
