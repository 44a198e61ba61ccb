// Command tradeoff runs the repository's experiments — the executable
// counterparts of every theorem in Hendler & Khait (PODC 2014) — and prints
// their tables. See EXPERIMENTS.md for the recorded results and the mapping
// to the paper's claims.
//
// Usage:
//
//	tradeoff [-run e1,e3] [-format text|markdown|csv] [-ns 8,16,32] [-ks 64,256] \
//	         [-workers 1,2,4,8] [-dpor] [-flight] [-flight-sample 64] [-flight-window 1024] \
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// With no flags it runs everything with the default sweeps. The profiling
// flags wrap the whole run: -cpuprofile and -memprofile write pprof
// profiles (`go tool pprof`), -trace writes a runtime execution trace
// (`go tool trace`) — the standard toolchain views of the same experiments
// whose shared-memory step counts the tables report.
//
// -flight adds the live monitored experiment ("flight", also selectable
// via -run flight): a concurrent workload over all four object families
// through the public facade with the flight recorder and online
// linearizability monitor attached — see docs/flight-recorder.md. The
// run fails on any detected violation. -flight-sample sets the
// recorder's 1-in-N sampling rate (1 = record everything, exact-mode
// checking) and -flight-window its per-process ring capacity.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strconv"
	"strings"

	"github.com/restricteduse/tradeoffs/internal/bench"
	"github.com/restricteduse/tradeoffs/internal/bench/flightlive"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tradeoff:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tradeoff", flag.ContinueOnError)
	var (
		runList    = fs.String("run", "all", "comma-separated experiments to run: e1,e2,e3,e4,e5,e7,e9,e10,e12,e13,e14 or all")
		format     = fs.String("format", "text", "output format: text, markdown, or csv")
		nsFlag     = fs.String("ns", "", "override process-count sweep for e1/e2/e5 (comma-separated)")
		ksFlag     = fs.String("ks", "", "override K sweep for e3 (comma-separated)")
		workersFlg = fs.String("workers", "1,2,4,8", "ExploreParallel worker-count sweep for e12, and for e14 when set (comma-separated, counts >= 1)")
		dporFlag   = fs.Bool("dpor", false, "run e12's exploration sweep under dynamic partial-order reduction (sleep sets)")
		flightFlag = fs.Bool("flight", false, "also run the live flight-recorder experiment (fails on any linearizability violation)")
		flightSmpl = fs.Int("flight-sample", 64, "flight recorder sampling rate: record 1 in N operations per process (1 = exact)")
		flightWin  = fs.Int("flight-window", 1024, "flight recorder per-process ring capacity, in records")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		traceFile  = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	render, ok := map[string]func(*bench.Table) string{
		"text":     (*bench.Table).Text,
		"markdown": (*bench.Table).Markdown,
		"csv":      (*bench.Table).CSV,
	}[*format]
	if !ok {
		return fmt.Errorf("unknown format %q (want text, markdown, or csv)", *format)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer trace.Stop()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tradeoff: -memprofile:", err)
			}
			f.Close()
		}()
	}

	ns := bench.DefaultCounterNs
	if *nsFlag != "" {
		parsed, err := parseInts(*nsFlag)
		if err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		ns = parsed
	}
	ks := bench.DefaultMaxRegKs
	if *ksFlag != "" {
		parsed, err := parseInts(*ksFlag)
		if err != nil {
			return fmt.Errorf("-ks: %w", err)
		}
		ks = parsed
	}

	experiments := map[string]func() ([]*bench.Table, error){
		"e1": func() ([]*bench.Table, error) { return bench.E1CounterTradeoff(ns) },
		"e2": func() ([]*bench.Table, error) { return bench.E2SnapshotTradeoff(ns) },
		"e3": func() ([]*bench.Table, error) { return bench.E3MaxRegAdversary(ks) },
		"e4": func() ([]*bench.Table, error) {
			return bench.E4AlgorithmASteps([]int{16, 64, 256, 1024, 4096}, 4096,
				[]int64{0, 1, 2, 4, 8, 16, 64, 256, 1024, 4095, 4096, 8192, 1 << 20, 1 << 40})
		},
		"e5": func() ([]*bench.Table, error) { return bench.E5Compare(bench.DefaultCompareNs) },
		"e7": func() ([]*bench.Table, error) { return bench.E7Lemma1Growth(64) },
		"e9": func() ([]*bench.Table, error) {
			return bench.E9Ablations(4096, []int64{1, 4, 16, 256, 4095, 4096, 1 << 20})
		},
		"e10": func() ([]*bench.Table, error) { return bench.E10AmortizedWrites(1 << 12) },
		"e12": func() ([]*bench.Table, error) {
			// -workers allows 1 (unlike the process sweeps): workers=1 vs
			// the sequential row is the replay-reuse ablation.
			workers, err := bench.ParseWorkers(*workersFlg)
			if err != nil {
				return nil, fmt.Errorf("-workers: %w", err)
			}
			return bench.E12ExploreScaling(bench.ExploreConfig{Workers: workers, Reduce: *dporFlag})
		},
		"e13": func() ([]*bench.Table, error) { return bench.E13ContentionSweep(bench.ContentionConfig{}) },
		"e14": func() ([]*bench.Table, error) {
			// The unreduced baseline row pays for the full tree, so
			// dimensions stay at the sweep defaults.
			workers, err := dporWorkers(fs)
			if err != nil {
				return nil, fmt.Errorf("-workers: %w", err)
			}
			return bench.E14DporReduction(bench.DporConfig{Workers: workers})
		},
	}
	experiments["flight"] = func() ([]*bench.Table, error) {
		return flightlive.Run(flightlive.Config{
			SampleEvery: *flightSmpl,
			Window:      *flightWin,
		})
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e7", "e9", "e10", "e12", "e13", "e14"}

	var selected []string
	if *runList == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*runList, ",") {
			name = strings.ToLower(strings.TrimSpace(name))
			if _, ok := experiments[name]; !ok {
				return fmt.Errorf("unknown experiment %q (want e1,e2,e3,e4,e5,e7,e9,e10,e12,e13,e14,flight)", name)
			}
			selected = append(selected, name)
		}
	}
	// -flight appends the live monitored run unless -run already named it.
	if *flightFlag && !slices.Contains(selected, "flight") {
		selected = append(selected, "flight")
	}

	for _, name := range selected {
		tables, err := experiments[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, t := range tables {
			fmt.Fprintln(out, render(t))
		}
	}
	return nil
}

// dporWorkers resolves e14's worker sweep: nil (the sweep's own smaller
// default axis) unless -workers was set on the command line — even when it
// was set to the flag's default value.
func dporWorkers(fs *flag.FlagSet) ([]int, error) {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == "workers" })
	if !set {
		return nil, nil
	}
	return bench.ParseWorkers(fs.Lookup("workers").Value.String())
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 2 {
			return nil, fmt.Errorf("size %d too small", v)
		}
		out = append(out, v)
	}
	return out, nil
}
