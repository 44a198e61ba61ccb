// Command perfbench is the repository's benchmark: two closed-loop
// workloads — watermark and modelcheck — that drive the public facade
// and the schedule explorer from 2 worker goroutines, check their own
// outputs, and print every metric by name with its unit. See
// README.md in this directory for the workloads, the metrics and the
// layer ladder.
//
//	perfbench --workload watermark --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result: a JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 a separate traced run replays
// the same seeded op stream against successively fuller stacks and
// reports the per-layer ones. The line before it is the run's metadata.
// A human-readable table goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_ns_p50", "ns"},
	{"read_ns_p90", "ns"},
	{"update_ns_p50", "ns"},
	{"update_ns_p90", "ns"},
	{"scrape_ms_p50", "ms"},
	{"allocs_per_op", "count"},
	{"rss_peak_mb", "MiB"},
	{"check_s", "s"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload does not cross reports 0.
var perLayer = []metricDef{
	{"primitive.read_ns", "ns"},
	{"primitive.write_ns", "ns"},
	{"primitive.cas_ns", "ns"},
	{"counter.increment_ns", "ns"},
	{"counter.increment_steps", "steps"},
	{"counter.read_ns", "ns"},
	{"counter.cas_fail_frac", "ratio"},
	{"core.readmax_ns", "ns"},
	{"core.writemax_ns", "ns"},
	{"core.writemax_steps", "steps"},
	{"snapshot.update_ns", "ns"},
	{"snapshot.update_steps", "steps"},
	{"snapshot.update_allocs", "count"},
	{"snapshot.scan_ns", "ns"},
	{"facade.read_ns", "ns"},
	{"facade.write_ns", "ns"},
	{"facade.update_ns", "ns"},
	{"facade.scan_ns", "ns"},
	{"counting.read_ns", "ns"},
	{"counting.write_ns", "ns"},
	{"counting.update_ns", "ns"},
	{"counting.scan_ns", "ns"},
	{"obs.read_ns", "ns"},
	{"obs.write_ns", "ns"},
	{"obs.update_ns", "ns"},
	{"obs.scan_ns", "ns"},
	{"bounds.read_ns", "ns"},
	{"bounds.write_ns", "ns"},
	{"bounds.update_ns", "ns"},
	{"bounds.scan_ns", "ns"},
	{"flight.read_ns", "ns"},
	{"flight.write_ns", "ns"},
	{"flight.update_ns", "ns"},
	{"flight.scan_ns", "ns"},
	{"flight.drop_frac", "ratio"},
	{"sim.executions", "count"},
	{"sim.events_per_exec", "count"},
	{"sim.allocs_per_exec", "count"},
	{"sim.self_s", "s"},
	{"sim.build_s", "s"},
	{"history.check_s", "s"},
	{"history.ops_per_exec", "count"},
	{"trace.overhead_frac", "ratio"},
}

var workloads = []string{"watermark", "modelcheck"}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its result; it returns
// the process exit code: 0 for a correct run, 1 for a run whose outputs
// failed a check, 2 for bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: watermark or modelcheck")
		seed     = fs.Int64("seed", 1, "workload seed; 2 is held out for verifying claims")
		secs     = fs.Int("seconds", 10, "how long the run measures")
		trace    = fs.Int("trace", 0, "1 for the traced per-layer run")
		spansOut = fs.String("spans", "", "traced runs: write the recorded spans here as Chrome trace JSON")
		childMs  = fs.Int64("child-ms", 0, "internal: measure as one process of an untraced run, for this many ms")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) || !slices.Contains(workloads, *workload) {
		fmt.Fprintf(stderr, "perfbench: want --workload %v, --seconds >= 1 and --trace 0|1\n", workloads)
		return 2
	}
	cfg := config{seed: *seed, budget: time.Duration(*secs) * time.Second, trace: *trace == 1}
	cfg.clockNs = measureClockNs()
	if *childMs > 0 {
		cfg.budget, cfg.trace = time.Duration(*childMs)*time.Millisecond, false
		res := runWorkload(*workload, cfg)
		res.meta["clock_ns"] = cfg.clockNs
		if err := printChild(res, stdout); err != nil || res.failed > 0 || len(res.errs) > 0 {
			return 1
		}
		return 0
	}
	var res *result
	if cfg.trace {
		res = runWorkload(*workload, cfg)
	} else {
		res = runChildren(*workload, cfg, stderr)
	}
	if *spansOut != "" && cfg.trace {
		if err := writeSpans(*spansOut, res.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
	}
	return report(*workload, cfg, res, stdout, stderr)
}

func runWorkload(workload string, cfg config) *result {
	var res *result
	switch workload {
	case "watermark":
		res = runWatermark(cfg)
	default:
		res = runModelcheck(cfg)
	}
	if !cfg.trace {
		res.metrics["rss_peak_mb"] = rssPeakMB()
	}
	return res
}

// report prints the metadata line, the result line and the stderr table,
// and returns the exit code.
func report(workload string, cfg config, res *result, stdout, stderr io.Writer) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := output{Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.trace {
			res.fail(1, fmt.Errorf("%s: metric %s was not measured", workload, d.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(1, fmt.Errorf("%s: metric %s is %v", workload, d.name, v))
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	out.Attempted, out.Failed = max(res.attempted, 1), res.failed
	out.Correct = res.failed == 0 && len(res.errs) == 0

	meta := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.budget.Seconds(),
		"trace":      cfg.trace,
		"commit":     envOr("PERFBENCH_COMMIT", "unknown"),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"clock_ns":   cfg.clockNs,
	}
	for k, v := range res.meta {
		meta[k] = v
	}
	var errs []string
	for i, err := range res.errs {
		if i == maxErrors {
			errs = append(errs, fmt.Sprintf("... and %d more", len(res.errs)-i))
			break
		}
		errs = append(errs, err.Error())
	}
	for _, e := range errs {
		fmt.Fprintf(stderr, "perfbench: %s\n", e)
	}
	if len(errs) > 0 {
		meta["errors"] = errs
	}

	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "%s seed=%d trace=%v clock=%.1fns attempted=%d failed=%d\n", workload, cfg.seed, cfg.trace, cfg.clockNs, out.Attempted, out.Failed)
	for _, name := range names {
		fmt.Fprintf(stderr, "  %-26s %14.6g %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// maxErrors caps the errors a result lists; the rest are counted.
const maxErrors = 20

// maxSpans caps the spans written out, so a long traced run cannot
// write an unbounded file.
const maxSpans = 200_000

// writeSpans writes spans as Chrome trace JSON ("X" events, one track per
// rung and worker), viewable in Perfetto.
func writeSpans(path string, spans []span) error {
	if len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  string         `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	for _, s := range spans {
		events = append(events, event{
			Name: s.Kind, Cat: s.Rung, Ph: "X",
			Ts:  float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: s.Rung, Tid: s.Worker, Args: map[string]int{"ops": s.Ops},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
