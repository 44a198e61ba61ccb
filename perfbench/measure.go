package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// clockGuard is the smallest multiple of the clock cost a timed block may
// last: a block shorter than clockGuard clock reads carries more than 1%
// of clock overhead and fails the run.
const clockGuard = 100

// measureClockNs returns the cost of one time.Now call in ns: the median
// over 21 batches of 10,000 calls, so a preempted batch cannot skew it.
func measureClockNs() float64 {
	const calls = 10_000
	per := make([]float64, 21)
	for i := range per {
		t0 := time.Now()
		for j := 0; j < calls; j++ {
			_ = time.Now()
		}
		per[i] = float64(time.Since(t0).Nanoseconds()) / calls
	}
	return median(per)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It panics on an empty slice:
// every caller measures at least one sample first.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts to seconds, for medians over set-up and round times.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// mallocs reports the process's cumulative heap allocation count. It
// stops the world, so callers read it only between timed phases.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rssPeakMB reports the process's peak resident set (VmHWM) in MiB, or,
// where /proc is unavailable, the Go runtime's total obtained memory.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// span is one timed block recorded in a traced run: which rung and
// worker ran it, which kind of op it timed, and how many. Spans stay in
// memory and are written out when the run ends (see writeSpans).
type span struct {
	Rung   string
	Worker int
	Kind   string
	Start  time.Time
	End    time.Time
	Ops    int
}

// timer collects one worker's timed blocks: per-op means by op kind, and,
// when tracing, the spans themselves.
type timer struct {
	clockNs float64
	rung    string
	worker  int
	kinds   []string
	perOp   [][]float64 // by kind: mean ns per op of each block
	ops     []int64     // by kind: ops timed
	short   int         // blocks under the clock guard
	spans   []span      // nil unless tracing
	trace   bool
}

func newTimer(clockNs float64, rung string, worker int, kinds []string, trace bool) *timer {
	return &timer{
		clockNs: clockNs,
		rung:    rung,
		worker:  worker,
		kinds:   kinds,
		perOp:   make([][]float64, len(kinds)),
		ops:     make([]int64, len(kinds)),
		trace:   trace,
	}
}

// record files one block of n ops of kind k that ran from start to end.
func (t *timer) record(k int, n int, start, end time.Time) {
	d := float64(end.Sub(start).Nanoseconds())
	if d < clockGuard*t.clockNs {
		t.short++
	}
	t.perOp[k] = append(t.perOp[k], d/float64(n))
	t.ops[k] += int64(n)
	if t.trace {
		t.spans = append(t.spans, span{Rung: t.rung, Worker: t.worker, Kind: t.kinds[k], Start: start, End: end, Ops: n})
	}
}

// timings is one configuration's timed blocks over a run's rounds. Each
// worker's blocks of a round are reduced to that worker's p50 and p90 of
// per-op means and then dropped, so what a run keeps, and its memory,
// does not grow with the number of rounds. A run reports the median of
// those percentiles over rounds and workers: one worker's slow round
// (two hot objects that happened to share a cache line, say) then moves
// the median by one sample instead of deciding it.
type timings struct {
	kinds []string
	p50s  [][]float64 // by kind, one per worker and round that timed the kind
	p90s  [][]float64
	ops   []int64
	short int
	spans []span
}

func newTimings(kinds []string) *timings {
	return &timings{kinds: kinds, p50s: make([][]float64, len(kinds)), p90s: make([][]float64, len(kinds)), ops: make([]int64, len(kinds))}
}

// addRound folds one round's timers into m.
func (m *timings) addRound(ts []*timer) {
	for _, t := range ts {
		for k, xs := range t.perOp {
			m.ops[k] += t.ops[k]
			if len(xs) > 0 {
				m.p50s[k] = append(m.p50s[k], quantile(xs, 0.5))
				m.p90s[k] = append(m.p90s[k], quantile(xs, 0.9))
			}
		}
		m.short += t.short
		m.spans = append(m.spans, t.spans...)
	}
}

// p50 and p90 return the median over workers and rounds of kind's p50 or
// p90, or 0 when the configuration timed no block of the kind.
func (m *timings) p50(kind string) float64 { return m.medianOf(m.p50s, kind) }
func (m *timings) p90(kind string) float64 { return m.medianOf(m.p90s, kind) }

func (m *timings) medianOf(by [][]float64, kind string) float64 {
	for k, name := range m.kinds {
		if name == kind && len(by[k]) > 0 {
			return median(by[k])
		}
	}
	return 0
}

// checkGuard fails a run whose timed blocks were too short for the clock.
func (m *timings) checkGuard(what string, clockNs float64) error {
	if m.short > 0 {
		return fmt.Errorf("%s: %d timed blocks lasted under %d clock reads (%.0f ns); enlarge the block size", what, m.short, clockGuard, clockGuard*clockNs)
	}
	return nil
}
