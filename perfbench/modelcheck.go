package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/history"
	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/sim"
)

// The modelcheck workload exhaustively checks the f-array counter for
// linearizability: sim.ExploreParallel with sleep-set reduction on 2
// workers enumerates every schedule of 3 simulated processes, and each
// complete execution's recorded history goes to history.CheckCounter. It
// bypasses the facade and all telemetry, and carries internal/sim and
// internal/history instead.
//
// The scripts are fixed — processes 0 and 2 each add then read, process 1
// reads twice — and the seed draws the two addends. Processes 0 and 2
// sit in different halves of the f-array tree, which keeps the schedule
// space at a few thousand executions; two writers under one parent
// multiply it fifty-fold. Positive addends cannot change which CASes
// succeed (a node's sum grows with every update it absorbs), so the
// schedule tree, and with it the execution count, is the same for every
// seed: mcExecutions pins it.

const (
	mcProcs = 3
	// mcExecutions is the number of complete executions the reduced
	// exploration visits, for every seed (including 1 and 2, the
	// documented seeds).
	mcExecutions = 4260
	// mcBlock is how many executions a worker explores, and then checks,
	// per timed block.
	mcBlock = 16
	// mcDumps is how many times each worker's last history is dumped per
	// round.
	mcDumps = 16
)

// mcInput is one seeded modelcheck configuration.
type mcInput struct {
	addends [mcProcs]int64 // 0 for the read-only process
	// skew is added to the pinned execution count; nonzero only in tests.
	skew int
}

func genModelcheck(seed int64) *mcInput {
	r := rng(seed, 0)
	in := &mcInput{}
	in.addends[0] = 1 + r.Int63n(9)
	in.addends[2] = 1 + r.Int63n(9)
	return in
}

func (in *mcInput) opsPerExec() int { return 2 * mcProcs }

// program is one simulated process: add then read, or read twice.
func (in *mcInput) program(c *counter.FArray, rec *history.Recorder, p int) sim.Program {
	addend := in.addends[p]
	return func(ctx primitive.Context) {
		for i := 0; i < 2; i++ {
			inv := rec.Invoke()
			if i == 0 && addend > 0 {
				if err := c.Add(ctx, addend); err != nil {
					panic(err) // a positive addend on an unbounded counter cannot fail
				}
				rec.Record(history.Op{Proc: p, Kind: history.KindIncrement, Arg: addend}, inv)
				continue
			}
			rec.Record(history.Op{Proc: p, Kind: history.KindCounterRead, Ret: c.Read(ctx)}, inv)
		}
	}
}

// build spawns the configuration into a system drawn from rc.
func (in *mcInput) build(rc *sim.Recycler) (*sim.System, *history.Recorder, error) {
	c, err := counter.NewFArray(rc.Pool(), mcProcs)
	if err != nil {
		return nil, nil, err
	}
	rec := history.NewRecorder()
	s := rc.NewSystem()
	for p := 0; p < mcProcs; p++ {
		if err := s.Spawn(p, in.program(c, rec, p)); err != nil {
			return nil, nil, err
		}
	}
	return s, rec, nil
}

// mcWorker is one exploration worker's state. Workers are told apart by
// the Recycler ExploreParallel hands each of them.
type mcWorker struct {
	id int

	// Untraced: histories wait in batch until mcBlock executions are
	// explored, then are checked as one timed block; explore and check
	// are each timed once per block.
	batch     [][]history.Op
	lastEnd   time.Time
	explore   []float64 // ns per execution, per block
	check     []float64
	shortBlks int

	// Traced: one span per build and per check callback.
	buildNs, checkNs float64
	spans            []span

	events, failed int64
	lastOps        []history.Op
}

// mcRound is one exhaustive exploration.
type mcRound struct {
	in      *mcInput
	trace   bool
	clockNs float64

	mu      sync.Mutex
	workers map[*sim.Recycler]*mcWorker
	systems sync.Map // *sim.System -> mcExec
}

type mcExec struct {
	w   *mcWorker
	rec *history.Recorder
}

func (r *mcRound) worker(rc *sim.Recycler) *mcWorker {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[rc]
	if !ok {
		w = &mcWorker{id: len(r.workers), lastEnd: time.Now()}
		r.workers[rc] = w
	}
	return w
}

func (r *mcRound) build(rc *sim.Recycler) (*sim.System, error) {
	w := r.worker(rc)
	var start time.Time
	if r.trace {
		start = time.Now()
	}
	s, rec, err := r.in.build(rc)
	if err != nil {
		return nil, err
	}
	r.systems.Store(s, mcExec{w: w, rec: rec})
	if r.trace {
		end := time.Now()
		w.buildNs += float64(end.Sub(start).Nanoseconds())
		w.spans = append(w.spans, span{Rung: "sim.build", Worker: w.id, Kind: "build", Start: start, End: end, Ops: 1})
	}
	return s, nil
}

func (r *mcRound) check(s *sim.System) error {
	v, ok := r.systems.LoadAndDelete(s)
	if !ok {
		return fmt.Errorf("modelcheck: no recorder bound to system %p", s)
	}
	e := v.(mcExec)
	w := e.w
	w.events += int64(len(s.Events()))
	if r.trace {
		start := time.Now()
		w.checkOne(e.rec.Ops())
		end := time.Now()
		w.checkNs += float64(end.Sub(start).Nanoseconds())
		w.spans = append(w.spans, span{Rung: "history.check", Worker: w.id, Kind: "check", Start: start, End: end, Ops: 1})
		return nil
	}
	w.batch = append(w.batch, e.rec.Ops())
	if len(w.batch) == mcBlock {
		r.flush(w, true)
	}
	return nil
}

func (w *mcWorker) checkOne(ops []history.Op) {
	if history.CheckCounter(ops) != nil {
		w.failed++
	}
	w.lastOps = ops
}

// flush checks a worker's batched histories, timing the block when timed.
func (r *mcRound) flush(w *mcWorker, timed bool) {
	n := len(w.batch)
	if n == 0 {
		return
	}
	t1 := time.Now()
	for _, ops := range w.batch {
		w.checkOne(ops)
	}
	t2 := time.Now()
	w.batch = w.batch[:0]
	if !timed {
		return
	}
	exploreNs, checkNs := float64(t1.Sub(w.lastEnd).Nanoseconds()), float64(t2.Sub(t1).Nanoseconds())
	if min(exploreNs, checkNs) < clockGuard*r.clockNs {
		w.shortBlks++
	}
	w.explore = append(w.explore, exploreNs/float64(n))
	w.check = append(w.check, checkNs/float64(n))
	w.lastEnd = t2
}

// mcResult is one round's measurements.
type mcResult struct {
	setup, wall   time.Duration
	execs, failed int64
	events        int64
	mallocs       uint64
	dumpMs        float64
	// pcts holds, per worker with timed blocks, its p50 and p90 of
	// per-execution block means: explore p50, p90, check p50, p90
	// (untraced rounds only).
	pcts    [][4]float64
	workers []*mcWorker
	errs    []error
}

// mcSetup builds one system of the configuration and releases it: the
// per-round set-up, timed on its own.
func mcSetup(in *mcInput) (time.Duration, error) {
	t0 := time.Now()
	rc := sim.NewRecycler()
	s, _, err := in.build(rc)
	if err != nil {
		return time.Since(t0), err
	}
	rc.Release(s)
	return time.Since(t0), nil
}

func runModelcheckRound(in *mcInput, clockNs float64, trace bool) mcResult {
	var res mcResult
	runtime.GC()
	setup, err := mcSetup(in)
	res.setup = setup
	if err != nil {
		res.errs = append(res.errs, fmt.Errorf("modelcheck: set-up: %w", err))
		res.failed = 1
		return res
	}
	r := &mcRound{in: in, trace: trace, clockNs: clockNs, workers: map[*sim.Recycler]*mcWorker{}}
	m0 := mallocs()
	start := time.Now()
	execs, err := sim.ExploreParallel(r.build, r.check, sim.Options{Reduce: true, Workers: procs, Budget: 10 * mcExecutions})
	for _, w := range r.workers {
		r.flush(w, false)
	}
	res.wall = time.Since(start)
	res.mallocs = mallocs() - m0
	if err != nil {
		res.errs = append(res.errs, fmt.Errorf("modelcheck: exploration: %w", err))
	}
	if want := mcExecutions + in.skew; execs != want {
		res.errs = append(res.errs, fmt.Errorf("modelcheck: explored %d executions, want %d", execs, want))
	}
	res.execs = int64(execs)
	var checkFails int64
	var last [][]history.Op
	for _, w := range r.workers {
		if len(w.explore) > 0 {
			res.pcts = append(res.pcts, [4]float64{quantile(w.explore, 0.5), quantile(w.explore, 0.9), quantile(w.check, 0.5), quantile(w.check, 0.9)})
		}
		res.workers = append(res.workers, w)
		checkFails += w.failed
		res.events += w.events
		if w.shortBlks > 0 {
			res.errs = append(res.errs, fmt.Errorf("modelcheck: %d timed blocks lasted under %d clock reads", w.shortBlks, clockGuard))
		}
		if w.lastOps != nil {
			last = append(last, w.lastOps)
		}
	}
	if !trace && len(res.pcts) == 0 {
		res.errs = append(res.errs, fmt.Errorf("modelcheck: no timed block completed"))
	}

	// Render each worker's last checked execution, mcDumps times, as the
	// history dump a reader inspects it through (cmd/simtrace
	// -from-history); the block mean is one scrape sample.
	t0 := time.Now()
	var buf bytes.Buffer
dumps:
	for i := 0; i < mcDumps; i++ {
		for _, ops := range last {
			buf.Reset()
			if err := history.WriteDump(&buf, &history.Dump{Name: "counter", Family: "counter", ClockUnit: "logical", SampleEvery: 1, Ops: ops}); err != nil {
				res.errs = append(res.errs, fmt.Errorf("modelcheck: dump: %w", err))
				break dumps
			}
		}
	}
	res.dumpMs = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(mcDumps*max(1, len(last)))

	// Every failed execution counts, and every other error counts once.
	res.failed = checkFails + int64(len(res.errs))
	if checkFails > 0 {
		res.errs = append(res.errs, fmt.Errorf("modelcheck: %d executions failed CheckCounter", checkFails))
	}
	return res
}

// runModelcheck runs the modelcheck workload: exhaustive explorations
// until the budget elapses. Traced, the first third of the budget records
// spans around every build and check callback, the second times the
// counter rung, and the last runs untraced, for the tracing overhead.
func runModelcheck(cfg config) *result {
	res := newResult()
	in := genModelcheck(cfg.seed)
	in.skew = int(cfg.skew)
	budget := cfg.budget
	if cfg.trace {
		budget /= 3
	}
	rs := modelcheckRounds(res, in, cfg.clockNs, budget, cfg.trace)
	if !cfg.trace {
		modelcheckEndToEnd(res, in, rs)
		return res
	}

	walls := make([]float64, len(rs))
	var m [7][]float64 // per round: execs, events/exec, allocs/exec, self, build, check, ops/exec
	for i, r := range rs {
		walls[i] = r.wall.Seconds()
		var build, check float64
		for _, w := range r.workers {
			build += w.buildNs / 1e9
			check += w.checkNs / 1e9
			res.spans = append(res.spans, w.spans...)
		}
		execs := float64(max(r.execs, 1))
		for j, v := range []float64{
			float64(r.execs), float64(r.events) / execs, float64(r.mallocs) / execs,
			float64(len(r.workers))*r.wall.Seconds() - build - check, build, check, float64(in.opsPerExec()),
		} {
			m[j] = append(m[j], v)
		}
	}
	for j, name := range []string{"sim.executions", "sim.events_per_exec", "sim.allocs_per_exec", "sim.self_s", "sim.build_s", "history.check_s", "history.ops_per_exec"} {
		res.metrics[name] = median(m[j])
	}
	runCounterRung(cfg, budget, res)

	var untraced []float64
	for _, r := range modelcheckRounds(res, in, cfg.clockNs, budget, false) {
		untraced = append(untraced, r.wall.Seconds())
	}
	res.metrics["trace.overhead_frac"] = median(walls)/median(untraced) - 1
	return res
}

// modelcheckRounds explores until budget elapses (once at least), and
// books the executions and failures into res.
func modelcheckRounds(res *result, in *mcInput, clockNs float64, budget time.Duration, trace bool) []mcResult {
	var rs []mcResult
	deadline := time.Now().Add(budget)
	for len(rs) == 0 || time.Now().Before(deadline) {
		r := runModelcheckRound(in, clockNs, trace)
		res.attempted += r.execs
		res.fail(r.failed, r.errs...)
		rs = append(rs, r)
	}
	return rs
}

// modelcheckEndToEnd fills the end-to-end metrics of an untraced
// modelcheck run. On this workload the update side is exploring one
// execution (scheduling, replaying and building it) and the read side is
// checking its history; ops_per_s counts simulated ops checked, and the
// scrape is rendering a checked execution as a history dump.
func modelcheckEndToEnd(res *result, in *mcInput, rs []mcResult) {
	setups := make([]time.Duration, len(rs))
	walls := make([]time.Duration, len(rs))
	opsPerS := make([]float64, len(rs))
	allocs := make([]float64, len(rs))
	dumps := make([]float64, len(rs))
	var percentiles [4][]float64 // explore p50, p90, check p50, p90
	for i, r := range rs {
		setups[i], walls[i], dumps[i] = r.setup, r.wall, r.dumpMs
		opsPerS[i] = float64(r.execs*int64(in.opsPerExec())) / r.wall.Seconds()
		allocs[i] = float64(r.mallocs) / float64(max(r.execs, 1))
		for _, pc := range r.pcts {
			for j, v := range pc {
				percentiles[j] = append(percentiles[j], v)
			}
		}
	}
	if len(percentiles[0]) == 0 {
		return // every round failed, and says why
	}
	m := res.metrics
	m["setup_s"] = steadySetup(setups)
	m["ops_per_s"] = median(opsPerS)
	m["update_ns_p50"] = median(percentiles[0])
	m["update_ns_p90"] = median(percentiles[1])
	m["read_ns_p50"] = median(percentiles[2])
	m["read_ns_p90"] = median(percentiles[3])
	m["scrape_ms_p50"] = median(dumps)
	m["allocs_per_op"] = median(allocs)
	m["check_s"] = median(seconds(walls))
	res.meta["rounds"] = len(rs)
	res.meta["first_setup_s"] = setups[0].Seconds()
	res.meta["executions_per_round"] = rs[0].execs
}
