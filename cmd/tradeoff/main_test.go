package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("8, 16,32")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 8 || got[2] != 32 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("8,x"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := parseInts("1"); err == nil {
		t.Fatal("size 1 accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "e99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-run", "e1", "-ns", "zap"}, &out); err == nil {
		t.Fatal("bad -ns accepted")
	}
	if err := run([]string{"-ks", "1"}, &out); err == nil {
		t.Fatal("bad -ks accepted")
	}
	if err := run([]string{"-run", "e1", "-ns", "4,8", "-format", "yaml"}, &out); err == nil {
		t.Fatal("bad format accepted")
	}
	// A bad -format must be rejected before any experiment runs: here the
	// experiment itself would fail on its -workers value first.
	err := run([]string{"-run", "e12", "-workers", "0", "-format", "yaml"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("bad format not rejected before running e12: %v", err)
	}
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunE1TextOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "e1", "-ns", "4,8"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"E1:", "forced rounds", "farray", "aac", "cas"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunFlightExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-flight", "-run", "flight", "-flight-sample", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"FLIGHT:", "maxreg", "counter", "snapshot", "consensus"} {
		if !strings.Contains(text, want) {
			t.Fatalf("flight output missing %q:\n%s", want, text)
		}
	}
	// -run flight already selects it; -flight must not run it twice.
	if n := strings.Count(text, "FLIGHT:"); n != 1 {
		t.Fatalf("flight experiment ran %d times, want 1", n)
	}
}

func TestRunMarkdownAndCSV(t *testing.T) {
	var md bytes.Buffer
	if err := run([]string{"-run", "e1", "-ns", "4", "-format", "markdown"}, &md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "### E1:") {
		t.Fatalf("markdown output malformed:\n%s", md.String())
	}
	var csv bytes.Buffer
	if err := run([]string{"-run", "e1", "-ns", "4", "-format", "csv"}, &csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "impl,N,") {
		t.Fatalf("csv output malformed:\n%s", csv.String())
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "e1, e9", "-ns", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E1:") || !strings.Contains(out.String(), "E9:") {
		t.Fatal("requested experiments missing from output")
	}
}

func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "trace.out")
	var out bytes.Buffer
	err := run([]string{"-run", "e1", "-ns", "4",
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", tr}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// The CPU profile and trace are finalized by deferred stops inside run,
	// so all three files must exist and be non-empty now.
	for _, path := range []string{cpu, mem, tr} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}

func TestProfilingFlagBadPath(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "e1", "-ns", "4", "-cpuprofile", "/nonexistent-dir/x"}, &out); err == nil {
		t.Fatal("unwritable -cpuprofile accepted")
	}
}

func TestRunE12ExploreScaling(t *testing.T) {
	// A single-worker run keeps the test fast while still exercising the
	// seq row, the parallel row, and the speedup column.
	var out bytes.Buffer
	if err := run([]string{"-run", "e12", "-workers", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"E12", "writers", "seq", "w1", "speedup_vs_seq"} {
		if !strings.Contains(text, want) {
			t.Fatalf("e12 output missing %q:\n%s", want, text)
		}
	}
}

func TestRunE12RejectsBadWorkers(t *testing.T) {
	var out bytes.Buffer
	for _, w := range []string{"0", "x", ""} {
		if err := run([]string{"-run", "e12", "-workers", w}, &out); err == nil {
			t.Fatalf("-workers %q accepted", w)
		}
	}
}

func TestDporWorkersHonorsExplicitFlag(t *testing.T) {
	cases := []struct {
		args []string
		want []int
	}{
		{nil, nil}, // unset: e14 keeps its own default axis
		{[]string{"-workers", "1,2"}, []int{1, 2}},
		// Explicitly set to the flag's default value: still honored.
		{[]string{"-workers", "1,2,4,8"}, []int{1, 2, 4, 8}},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("tradeoff", flag.ContinueOnError)
		fs.String("workers", "1,2,4,8", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got, err := dporWorkers(fs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v: e14 workers = %v, want %v", tc.args, got, tc.want)
		}
	}
}

func TestRunE13ContentionSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "e13", "-format", "markdown"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"### E13:", "sharded_update_ns", "crossover: "} {
		if !strings.Contains(text, want) {
			t.Fatalf("e13 output missing %q:\n%s", want, text)
		}
	}
}
