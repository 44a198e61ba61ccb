package main

import (
	"fmt"
	"time"

	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// The counter rung times the f-array counter that the modelcheck
// workload explores, this time over primitive.Direct on 2 goroutines,
// in the shape of examples/metrics: each process counts requests with
// Increment, counts a seeded 1-in-50 of them as errors on a CAS counter
// too, and reads the f-array counter once per 64 ops. Two writers on one
// f-array root make real CAS retries, which counter.cas_fail_frac
// reports. It is part of modelcheck's traced run only: its contended
// increments swing too much from one run to the next on a 2-core host to
// carry an end-to-end bound.

// Op kinds of the counter rung.
const (
	counterIncrement = iota
	counterRead
)

var counterKinds = []string{"increment", "read"}

// counterReadBlock is the reads per cycle of the counter rung's stream;
// each process runs 63 times as many increments first, so it reads once
// per 64 ops. At about 3 ns a read over Direct, a block this long still
// lasts over 100 clock reads.
const counterReadBlock = 8192

// counterInput is the counter rung's seeded stream, one cycle per
// process, identical for every round of a run.
type counterInput struct {
	segs [procs][]segment
	// failFlag[p][i] reports whether process p's i-th request is one of
	// the seeded 1-in-50 that also count an error.
	failFlag [procs][]bool
	incs     [procs]int
	fails    [procs]int
	reads    [procs]int
	// skew is added to every expected count the output checks compare
	// against; nonzero only in tests, which use it to prove the checks
	// can fail.
	skew int64
}

func genCounter(seed int64) *counterInput {
	in := &counterInput{}
	for p := 0; p < procs; p++ {
		r := rng(seed, p)
		in.incs[p], in.reads[p] = 63*counterReadBlock, counterReadBlock
		in.segs[p] = []segment{
			{kind: counterIncrement, n: in.incs[p]},
			{kind: counterRead, n: in.reads[p]},
		}
		in.failFlag[p] = make([]bool, in.incs[p])
		for i := range in.failFlag[p] {
			if r.Intn(50) == 0 {
				in.failFlag[p][i] = true
				in.fails[p]++
			}
		}
	}
	return in
}

func (in *counterInput) ops() int64 {
	var n int64
	for p := 0; p < procs; p++ {
		n += int64(in.incs[p] + in.fails[p] + in.reads[p])
	}
	return n
}

// counterSub is the counter rung's timed block size, by op kind
// (increment, read); each block lasts at least 300 clock reads over
// Direct.
var counterSub = []int{256, 8192}

// checkCounterCounts is the counter rung's output check: the f-array
// counter counted every request issued, and the CAS counter every
// injected error.
func checkCounterCounts(in *counterInput, served, failed int64) []error {
	var wantServed, wantFailed int64
	for p := 0; p < procs; p++ {
		wantServed += int64(in.incs[p])
		wantFailed += int64(in.fails[p])
	}
	var errs []error
	if served != wantServed+in.skew {
		errs = append(errs, fmt.Errorf("counter: served counted %d, want %d", served, wantServed+in.skew))
	}
	if failed != wantFailed+in.skew {
		errs = append(errs, fmt.Errorf("counter: failed counted %d, want %d", failed, wantFailed+in.skew))
	}
	return errs
}

// counterAlgo is one round of the counter rung. With acc set, the
// f-array's steps and CAS outcomes are counted instead (a separate pass,
// since counting slows the op it counts).
type counterAlgo struct {
	in     *counterInput
	served *counter.FArray
	failed *counter.CAS
	acc    *layerAcc
	ws     [procs]*counterAlgoWorker
}

func buildCounterAlgo(in *counterInput, acc *layerAcc) (instance, error) {
	pool := primitive.NewPadded()
	served, err := counter.NewFArray(pool, procs)
	if err != nil {
		return nil, err
	}
	failed, err := counter.NewCAS(pool, 0)
	if err != nil {
		return nil, err
	}
	a := &counterAlgo{in: in, served: served, failed: failed, acc: acc}
	for p := range a.ws {
		w := &counterAlgoWorker{served: served, failed: failed, direct: primitive.NewDirect(p), failFlag: in.failFlag[p]}
		if acc != nil {
			w.cnt = &countingCtx{Direct: w.direct}
		}
		a.ws[p] = w
	}
	return a, nil
}

func (a *counterAlgo) workers() [procs]worker {
	var ws [procs]worker
	for p := range ws {
		ws[p] = a.ws[p]
	}
	return ws
}

func (a *counterAlgo) scrape() (bool, error) { return false, nil }

func (a *counterAlgo) finish() []error {
	d := primitive.NewDirect(0)
	return checkCounterCounts(a.in, a.served.Read(d), a.failed.Read(d))
}

func (a *counterAlgo) close() {
	if a.acc == nil {
		return
	}
	for _, w := range a.ws {
		a.acc.incSteps += w.cnt.steps
		a.acc.cas += w.cnt.cas
		a.acc.casFailed += w.cnt.casFailed
		a.acc.incs += int64(len(w.failFlag))
	}
}

type counterAlgoWorker struct {
	served   *counter.FArray
	failed   *counter.CAS
	direct   primitive.Direct
	cnt      *countingCtx // counts served's increments when set
	failFlag []bool
	last     int64
}

func (w *counterAlgoWorker) run(k, from, n int) int {
	var ctx primitive.Context = w.direct
	if w.cnt != nil {
		ctx = w.cnt
	}
	fails := 0
	switch k {
	case counterIncrement:
		for _, fail := range w.failFlag[from : from+n] {
			if w.served.Increment(ctx) != nil {
				fails++
			}
			if fail && w.failed.Increment(w.direct) != nil {
				fails++
			}
		}
	case counterRead: // uncounted: the counting pass counts increments
		last := w.last
		for i := 0; i < n; i++ {
			v := w.served.Read(w.direct)
			if v < last {
				fails++
			}
			last = v
		}
		w.last = last
	}
	return fails
}

// countingCtx counts one process's shared-memory steps and CAS outcomes.
type countingCtx struct {
	primitive.Direct
	steps, cas, casFailed int64
}

func (c *countingCtx) Read(r *primitive.Register) int64 {
	c.steps++
	return c.Direct.Read(r)
}

func (c *countingCtx) Write(r *primitive.Register, v int64) {
	c.steps++
	c.Direct.Write(r, v)
}

func (c *countingCtx) CAS(r *primitive.Register, old, new int64) bool {
	c.steps++
	c.cas++
	ok := c.Direct.CAS(r, old, new)
	if !ok {
		c.casFailed++
	}
	return ok
}

// runCounterRung times the counter rung for budget, then runs its
// step-counting pass, and fills the counter layer's metrics.
func runCounterRung(cfg config, budget time.Duration, res *result) {
	in := genCounter(cfg.seed)
	in.skew = cfg.skew
	st := stream{kinds: counterKinds, segs: &in.segs, ops: in.ops()}
	timed := rung{name: "counter", sub: counterSub, build: func() (instance, error) { return buildCounterAlgo(in, nil) }}
	run := runRung(res, timed, st, cfg.clockNs, budget, true)
	res.metrics["counter.increment_ns"] = run.t.p50("increment")
	res.metrics["counter.read_ns"] = run.t.p50("read")
	res.spans = append(res.spans, run.t.spans...)

	acc := &layerAcc{}
	counted := rung{name: "counter-counted", sub: counterSub, build: func() (instance, error) { return buildCounterAlgo(in, acc) }}
	runRung(res, counted, st, cfg.clockNs, 0, false)
	if acc.incs == 0 || acc.cas == 0 {
		res.fail(1, fmt.Errorf("counter: counting pass counted no increments"))
		return
	}
	res.metrics["counter.increment_steps"] = float64(acc.incSteps) / float64(acc.incs)
	res.metrics["counter.cas_fail_frac"] = float64(acc.casFailed) / float64(acc.cas)
}
