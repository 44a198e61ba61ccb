package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	tradeoffs "github.com/restricteduse/tradeoffs"
)

// layers selects the facade options of one ladder rung. Each rung adds
// one layer to the rung below it.
type layers struct {
	counting bool // WithStepCounting
	obs      bool // WithObservability, with bound scoring off
	bounds   bool // WithObservability's default bound scoring
	flight   bool // WithFlightRecorder at the default 1/64 sampling
}

// emptyBoundTable is a valid bound table with no rows: objects built with
// it are observed but never scored, which splits bound scoring from the
// rest of the observability layer.
var emptyBoundTable = []byte(`{"schema":"tradeoffs/bounds/v1","rows":[]}`)

// telemetry is one round's observability registry and flight recorder,
// each nil when its layer is off.
type telemetry struct {
	o       *tradeoffs.Observability
	fr      *tradeoffs.FlightRecorder
	metrics http.Handler
	req     *http.Request
}

func newTelemetry(l layers) *telemetry {
	t := &telemetry{}
	if l.obs || l.bounds || l.flight {
		t.o = tradeoffs.NewObservability()
		t.metrics = t.o.MetricsHandler()
		t.req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	}
	if l.flight {
		t.fr = tradeoffs.NewFlightRecorder(tradeoffs.FlightConfig{})
	}
	return t
}

// options returns the facade options of l for an object named name.
func (t *telemetry) options(l layers, name string) []tradeoffs.Option {
	opts := []tradeoffs.Option{tradeoffs.WithProcesses(procs)}
	if l.counting {
		opts = append(opts, tradeoffs.WithStepCounting())
	}
	if t.o != nil {
		opts = append(opts, tradeoffs.WithObservability(t.o), tradeoffs.WithName(name))
		if !l.bounds {
			opts = append(opts, tradeoffs.WithBoundTableJSON(emptyBoundTable))
		}
	}
	if t.fr != nil {
		opts = append(opts, tradeoffs.WithFlightRecorder(t.fr))
	}
	return opts
}

func (t *telemetry) start() {
	if t.fr != nil {
		t.fr.Start()
	}
}

func (t *telemetry) close() {
	if t.fr != nil {
		t.fr.Stop()
	}
}

// render serves one /metrics request in-process, with no socket.
func (t *telemetry) render() (string, error) {
	rec := httptest.NewRecorder()
	t.metrics.ServeHTTP(rec, t.req)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		return "", fmt.Errorf("/metrics answered %d with %d bytes", rec.Code, rec.Body.Len())
	}
	return rec.Body.String(), nil
}

func (t *telemetry) scrape() (bool, error) {
	if t.o == nil {
		return false, nil
	}
	_, err := t.render()
	return true, err
}

// checks are the telemetry-side output checks every facade round passes:
// the flight recorder found no linearizability violation, and no op
// broke its certified worst-case step bound or exceeded its uncontended
// bound for a reason the bound does not explain.
func (t *telemetry) checks() []error {
	var errs []error
	if t.fr != nil {
		t.fr.Sync()
		for _, v := range t.fr.Violations() {
			errs = append(errs, fmt.Errorf("flight violation on %s: %s", v.Object, v.Detail))
		}
	}
	if t.o == nil {
		return errs
	}
	for _, e := range t.o.BoundExemplars() {
		errs = append(errs, fmt.Errorf("bound violation on %s.%s: %d steps", e.Object, e.Op, e.Observed))
	}
	body, err := t.render()
	if err != nil {
		return append(errs, err)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		bad := strings.HasPrefix(line, "tradeoffs_bound_violations_total{") ||
			strings.HasPrefix(line, "tradeoffs_bound_exceedances_total{") && strings.Contains(line, `cause="unexplained"`)
		if !bad {
			continue
		}
		fields := strings.Fields(line)
		if n, err := strconv.ParseFloat(fields[len(fields)-1], 64); err != nil || n != 0 {
			errs = append(errs, fmt.Errorf("bound conformance: %s", line))
		}
	}
	return errs
}

// flightDrops reports how many flight-recorded ops the monitor dropped,
// and how many it recorded.
func (t *telemetry) flightDrops() (dropped, recorded int64) {
	if t.fr == nil {
		return 0, 0
	}
	st := t.fr.Stats()
	return st.Dropped, st.Recorded
}
