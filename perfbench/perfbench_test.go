package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark executable:
// an untraced run re-executes its own binary once per measuring process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--workload" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: program defines %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// runCLI runs the benchmark as the driver does and returns its exit code
// and parsed result line.
func runCLI(t *testing.T, args ...string) (int, output) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%v: result line %q: %v\nstderr:\n%s", args, lines[len(lines)-1], err, stderr.String())
	}
	if code != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, out
}

func assertMetrics(t *testing.T, out output, defs []metricDef, nonzero bool) {
	t.Helper()
	if len(out.Metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
		case nonzero && m.Value <= 0:
			t.Errorf("metric %s: value %v, want > 0", d.name, m.Value)
		}
	}
}

func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			code, out := runCLI(t, "--workload", w, "--seed", "2", "--seconds", "1", "--trace", "0")
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("exit %d, correct %v, failed %d of %d", code, out.Correct, out.Failed, out.Attempted)
			}
			assertMetrics(t, out, endToEnd, true)
		})
	}
}

// layersCrossed are the per-layer metric prefixes each workload's traced
// run measures; every other layer reports 0 on it.
var layersCrossed = map[string][]string{
	"watermark":  {"primitive.", "core.", "snapshot.", "facade.", "counting.", "obs.", "bounds.", "flight.", "trace."},
	"modelcheck": {"counter.", "sim.", "history.", "trace."},
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's ladder")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			code, out := runCLI(t, "--workload", w, "--seed", "1", "--seconds", "2", "--trace", "1")
			if code != 0 || !out.Correct {
				t.Fatalf("exit %d, correct %v, failed %d", code, out.Correct, out.Failed)
			}
			assertMetrics(t, out, perLayer, false)
			// Every metric of a layer the workload crosses was measured;
			// only the fractions may legitimately be 0.
			for name, m := range out.Metrics {
				if m.Value != 0 || name == "flight.drop_frac" || name == "counter.cas_fail_frac" || name == "trace.overhead_frac" {
					continue
				}
				for _, prefix := range layersCrossed[w] {
					if strings.HasPrefix(name, prefix) {
						t.Errorf("%s: layer metric %s is 0", w, name)
					}
				}
			}
		})
	}
}

// TestWrongExpectedCountFailsTheRun feeds every output check an expected
// count one off from the truth: each check must fail, and the run with it.
func TestWrongExpectedCountFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Checks that compare against an expected count; modelcheck runs
	// traced, so that its counter rung's checks run too.
	wantFailing := map[string][]string{
		"watermark":  {"segment 0 holds", "segment 1 holds", "commit index ends at"},
		"modelcheck": {"explored 4260 executions, want 4261", "served counted", "failed counted"},
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := config{seed: 1, budget: time.Millisecond, trace: w == "modelcheck", skew: 1, clockNs: measureClockNs()}
			res := runWorkload(w, cfg)
			if res.failed == 0 {
				t.Fatal("run with wrong expected counts reported no failure")
			}
			var msgs []string
			for _, err := range res.errs {
				msgs = append(msgs, err.Error())
			}
			all := strings.Join(msgs, "\n")
			for _, want := range wantFailing[w] {
				if !strings.Contains(all, want) {
					t.Errorf("no failed check %q among:\n%s", want, all)
				}
			}
			var stdout, stderr bytes.Buffer
			if code := report(w, cfg, res, &stdout, &stderr); code == 0 {
				t.Error("report exited 0 for a failed run")
			}
			if !strings.Contains(stdout.String(), `"correct":false`) {
				t.Errorf("result line does not say correct=false:\n%s", stdout.String())
			}
		})
	}
}

func TestBadArgumentsExitWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seconds", "1"},
		{"--workload", "watermark", "--seconds", "0"},
		{"--workload", "watermark", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %q on stdout, want 2 and nothing", args, code, stdout.String())
		}
	}
}
