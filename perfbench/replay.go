package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// worker issues one process's ops against one configuration.
type worker interface {
	// run issues n ops of kind k — the process's ops from..from+n-1 of
	// that kind — and returns how many failed: returned an error or broke
	// an inline output check.
	run(k, from, n int) int
}

// instance is one freshly built configuration of a rung.
type instance interface {
	workers() [procs]worker
	// scrape renders /metrics in-process; ok is false for configurations
	// without observability.
	scrape() (ok bool, err error)
	// finish runs the round's output checks after the workers joined.
	finish() []error
	close()
}

// rung is one configuration of a workload's ladder: a layer name,
// how to build it, and the timed block size for each op kind, chosen so
// that every block outlasts clockGuard clock reads at that rung's speed.
type rung struct {
	name  string
	build func() (instance, error)
	sub   []int
}

// roundResult is one round: a fresh set-up, one replay of the stream on
// procs goroutines, and the output checks.
type roundResult struct {
	setup   time.Duration
	wall    time.Duration // first op issued to last op returned
	checked time.Duration // wall plus the output checks
	failed  int64
	errs    []error
	mallocs uint64
	scrapes []float64 // ms per /metrics render
}

// stream is a seeded op stream as the replay driver sees it.
type stream struct {
	kinds []string
	segs  *[procs][]segment
	ops   int64 // per round, over both processes
	// scrapeEvery is how many of its ops process 0 issues between
	// /metrics renders; 0 for none.
	scrapeEvery int
}

// replayRound builds r and replays st on it, timing blocks into ts (one
// timer per process).
func replayRound(r rung, st stream, ts []*timer) roundResult {
	var res roundResult
	runtime.GC()
	t0 := time.Now()
	inst, err := r.build()
	if err != nil {
		res.setup = time.Since(t0)
		res.errs = []error{fmt.Errorf("%s: set-up: %w", r.name, err)}
		res.failed = 1
		return res
	}
	ws := inst.workers()
	res.setup = time.Since(t0)
	defer inst.close()

	m0 := mallocs()
	var (
		wg        sync.WaitGroup
		fails     [procs]int64
		scrapes   []float64
		scrapeErr error
	)
	start := time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			w, t := ws[p], ts[p]
			done, nextScrape := 0, st.scrapeEvery
			for _, seg := range st.segs[p] {
				sub := r.sub[seg.kind]
				for off := 0; off < seg.n; off += sub {
					n := min(sub, seg.n-off)
					b := time.Now()
					fails[p] += int64(w.run(seg.kind, seg.from+off, n))
					t.record(seg.kind, n, b, time.Now())
					done += n
					if p != 0 || st.scrapeEvery == 0 || done < nextScrape {
						continue
					}
					nextScrape += st.scrapeEvery
					b = time.Now()
					ok, err := inst.scrape()
					if err != nil && scrapeErr == nil {
						scrapeErr = err
					}
					if ok {
						scrapes = append(scrapes, float64(time.Since(b).Nanoseconds())/1e6)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.mallocs = mallocs() - m0
	res.errs = inst.finish()
	res.checked = time.Since(start)
	res.scrapes = scrapes
	if scrapeErr != nil {
		res.errs = append(res.errs, fmt.Errorf("%s: scrape: %w", r.name, scrapeErr))
	}
	res.failed = int64(len(res.errs))
	var opFails int64
	for _, n := range fails {
		opFails += n
	}
	if opFails > 0 {
		res.failed += opFails
		res.errs = append(res.errs, fmt.Errorf("%s: %d ops failed or broke an inline check", r.name, opFails))
	}
	return res
}

// rungRun is one rung's rounds and timings over a run.
type rungRun struct {
	rounds []roundResult
	t      *timings
}

// runRung measures r on st for budget (one round at least), and books
// its ops, failures and clock-guard breaches into res.
func runRung(res *result, r rung, st stream, clockNs float64, budget time.Duration, trace bool) rungRun {
	run := rungRun{t: newTimings(st.kinds)}
	deadline := time.Now().Add(budget)
	for len(run.rounds) == 0 || time.Now().Before(deadline) {
		ts := newTimers(clockNs, r.name, st.kinds, trace)
		rr := replayRound(r, st, ts)
		run.t.addRound(ts)
		run.rounds = append(run.rounds, rr)
		res.attempted += st.ops
		res.fail(rr.failed, rr.errs...)
	}
	if err := run.t.checkGuard(r.name, clockNs); err != nil {
		res.fail(1, err)
	}
	return run
}

func newTimers(clockNs float64, rungName string, kinds []string, trace bool) []*timer {
	ts := make([]*timer, procs)
	for p := range ts {
		ts[p] = newTimer(clockNs, rungName, p, kinds, trace)
	}
	return ts
}

// medianOpsPerS is the median over a run's rounds of ops per second of
// round wall time.
func medianOpsPerS(run rungRun, ops int64) float64 {
	xs := make([]float64, len(run.rounds))
	for i, r := range run.rounds {
		xs[i] = float64(ops) / r.wall.Seconds()
	}
	return median(xs)
}
