package main

import (
	"fmt"
	"slices"
	"time"

	tradeoffs "github.com/restricteduse/tradeoffs"
	"github.com/restricteduse/tradeoffs/internal/core"
	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/snapshot"
)

// The watermark workload is read-heavy commit-index tracking, the shape
// of examples/watermark folded onto two processes: each process publishes
// its durable offset into its segment of the f-array snapshot
// "durable-offsets", scans it every other update and writes the quorum
// offset (the minimum over both replicas) to the Algorithm A max register
// "commit-index", and reads the commit index 64 times per update. A read
// is one shared-memory step, so nearly all of its time is facade and
// telemetry cost.

// Timed block sizes of the watermark rungs, in ops, by op kind (update,
// scan, write, read). Each block lasts at least 300 clock reads at the
// speed of the fastest rung it is used on.
var (
	wmSubAlgo   = []int{64, 1024, 2048, 16384}
	wmSubFacade = []int{64, 1024, 2048, 8192} // also with step counting
	wmSubTel    = []int{64, 128, 128, 128}
	wmSize      = watermarkSize{cycles: 4, updateBlock: 4096, scrapeEvery: 1 << 16}
)

// wmAlgoMetric names the algorithm rung's per-layer metric by op kind.
var wmAlgoMetric = []string{"snapshot.update_ns", "snapshot.scan_ns", "core.writemax_ns", "core.readmax_ns"}

// runWatermark runs the watermark workload. Untraced, it measures the
// full stack for the whole budget and reports the end-to-end metrics.
// Traced, it gives equal shares of the budget to the primitive rung, to
// each rung of the ladder from the algorithms up to the full stack, and
// to the full stack once more untraced; then it runs the algorithm
// rung's step-counting pass, and reports the per-layer metrics.
func runWatermark(cfg config) *result {
	res := newResult()
	in := genWatermark(cfg.seed, wmSize)
	in.skew = cfg.skew
	acc := &layerAcc{}
	facade := func(l layers) func() (instance, error) {
		return func() (instance, error) { return buildWatermarkFacade(in, l, acc) }
	}
	ladder := []rung{
		{name: "algorithm", sub: wmSubAlgo, build: func() (instance, error) { return buildWatermarkAlgo(in, nil) }},
		{name: "facade", sub: wmSubFacade, build: facade(layers{})},
		{name: "counting", sub: wmSubFacade, build: facade(layers{counting: true})},
		{name: "obs", sub: wmSubTel, build: facade(layers{counting: true, obs: true})},
		{name: "bounds", sub: wmSubTel, build: facade(layers{counting: true, obs: true, bounds: true})},
		{name: "flight", sub: wmSubTel, build: facade(layers{counting: true, obs: true, bounds: true, flight: true})},
	}
	top := ladder[len(ladder)-1]
	st := stream{kinds: watermarkKinds, segs: &in.segs, ops: in.ops(), scrapeEvery: wmSize.scrapeEvery}
	if !cfg.trace {
		watermarkEndToEnd(res, in, runRung(res, top, st, cfg.clockNs, cfg.budget, false))
		return res
	}

	slice := cfg.budget / time.Duration(len(ladder)+2)
	prim := runPrimitive(res, cfg.clockNs, slice)
	for _, kind := range primitiveKinds {
		res.metrics["primitive."+kind+"_ns"] = prim.p50(kind)
	}
	res.spans = append(res.spans, prim.spans...)

	var traced rungRun
	for i, r := range ladder {
		acc.flightDropped, acc.flightRecorded = 0, 0
		traced = runRung(res, r, st, cfg.clockNs, slice, true)
		for k, kind := range watermarkKinds {
			name := r.name + "." + kind + "_ns"
			if i == 0 {
				name = wmAlgoMetric[k]
			}
			res.metrics[name] = traced.t.p50(kind)
		}
		res.spans = append(res.spans, traced.t.spans...)
	}
	if acc.flightRecorded > 0 {
		res.metrics["flight.drop_frac"] = float64(acc.flightDropped) / float64(acc.flightRecorded)
	}
	untraced := runRung(res, top, st, cfg.clockNs, slice, false)
	res.metrics["trace.overhead_frac"] = medianOpsPerS(untraced, in.ops())/medianOpsPerS(traced, in.ops()) - 1

	counted := rung{name: "algorithm-counted", sub: wmSubAlgo, build: func() (instance, error) { return buildWatermarkAlgo(in, acc) }}
	runRung(res, counted, stream{kinds: watermarkKinds, segs: &in.segs, ops: in.ops()}, cfg.clockNs, 0, false)
	if acc.writes == 0 || acc.updates == 0 {
		res.fail(1, fmt.Errorf("watermark: counting pass counted no updates"))
	} else {
		res.metrics["core.writemax_steps"] = float64(acc.writeSteps) / float64(acc.writes)
		res.metrics["snapshot.update_steps"] = float64(acc.updateSteps) / float64(acc.updates)
	}
	allocs, err := snapshotUpdateAllocs()
	if err != nil {
		res.fail(1, err)
	}
	res.metrics["snapshot.update_allocs"] = allocs
	return res
}

// watermarkEndToEnd fills the end-to-end metrics of an untraced run.
func watermarkEndToEnd(res *result, in *watermarkInput, run rungRun) {
	ops := in.ops()
	setups := make([]time.Duration, len(run.rounds))
	checked := make([]time.Duration, len(run.rounds))
	allocs := make([]float64, len(run.rounds))
	kops := make([]int, len(run.rounds))
	var scrapes []float64
	for i, r := range run.rounds {
		setups[i], checked[i] = r.setup, r.checked
		allocs[i] = float64(r.mallocs) / float64(ops)
		kops[i] = int(float64(ops) / r.wall.Seconds() / 1000)
		scrapes = append(scrapes, r.scrapes...)
	}
	m := res.metrics
	m["setup_s"] = steadySetup(setups)
	m["ops_per_s"] = medianOpsPerS(run, ops)
	m["read_ns_p50"] = run.t.p50("read")
	m["read_ns_p90"] = run.t.p90("read")
	m["update_ns_p50"] = run.t.p50("update")
	m["update_ns_p90"] = run.t.p90("update")
	if len(scrapes) > 0 {
		m["scrape_ms_p50"] = median(scrapes)
	}
	m["allocs_per_op"] = median(allocs)
	m["check_s"] = median(seconds(checked))
	res.meta["rounds"] = len(run.rounds)
	res.meta["round_kops_per_s"] = kops
	res.meta["first_setup_s"] = setups[0].Seconds()
	res.meta["scrapes"] = len(scrapes)
}

// wmState is one process's view of a round: its offsets, the quorums its
// scans computed (scan i feeds write i), and the highest commit index it
// wrote or read, which its later reads must not fall below.
type wmState struct {
	offsets []int64
	quorums []int64
	floor   int64
}

func newWMState(in *watermarkInput, p int) wmState {
	return wmState{offsets: in.offsets[p], quorums: make([]int64, in.scans[p])}
}

// readCheck counts the reads in vs that regressed below the process's floor.
func (s *wmState) readCheck(v int64) int {
	if v < s.floor {
		return 1
	}
	s.floor = v
	return 0
}

func quorumOf(segs []int64) int64 { return slices.Min(segs) }

// checkWatermark is watermark's end-of-round output check: the snapshot
// holds each process's last offset, and after one more quorum write the
// commit index stands at the last quorum offset.
func checkWatermark(in *watermarkInput, scan []int64, final int64) []error {
	var errs []error
	for p := 0; p < procs; p++ {
		if want := in.offsets[p][len(in.offsets[p])-1] + in.skew; scan[p] != want {
			errs = append(errs, fmt.Errorf("watermark: segment %d holds %d, want %d", p, scan[p], want))
		}
	}
	if want := in.finalQuorum() + in.skew; final != want {
		errs = append(errs, fmt.Errorf("watermark: commit index ends at %d, want %d", final, want))
	}
	return errs
}

// watermarkFacade is one watermark round on the public facade.
type watermarkFacade struct {
	in      *watermarkInput
	tel     *telemetry
	commit  *tradeoffs.MaxRegister
	durable *tradeoffs.Snapshot
	acc     *layerAcc
}

func buildWatermarkFacade(in *watermarkInput, l layers, acc *layerAcc) (instance, error) {
	tel := newTelemetry(l)
	commit, err := tradeoffs.NewMaxRegister(append(tel.options(l, "commit-index"), tradeoffs.WithMaxRegisterImpl(tradeoffs.MaxRegisterAlgorithmA))...)
	if err != nil {
		return nil, err
	}
	durable, err := tradeoffs.NewSnapshot(append(tel.options(l, "durable-offsets"),
		tradeoffs.WithSnapshotImpl(tradeoffs.SnapshotFArray), tradeoffs.WithLimit(in.totalUpdates()+1))...)
	if err != nil {
		return nil, err
	}
	tel.start()
	return &watermarkFacade{in: in, tel: tel, commit: commit, durable: durable, acc: acc}, nil
}

func (f *watermarkFacade) workers() [procs]worker {
	var ws [procs]worker
	for p := range ws {
		ws[p] = &watermarkFacadeWorker{commit: f.commit.Handle(p), durable: f.durable.Handle(p), st: newWMState(f.in, p)}
	}
	return ws
}

func (f *watermarkFacade) scrape() (bool, error) { return f.tel.scrape() }

func (f *watermarkFacade) finish() []error {
	errs := f.tel.checks()
	scan := f.durable.Handle(0).Scan()
	h := f.commit.Handle(0)
	if err := h.Write(quorumOf(scan)); err != nil {
		errs = append(errs, err)
	}
	return append(errs, checkWatermark(f.in, scan, h.Read())...)
}

func (f *watermarkFacade) close() {
	if f.acc != nil {
		d, r := f.tel.flightDrops()
		f.acc.flightDropped += d
		f.acc.flightRecorded += r
	}
	f.tel.close()
}

type watermarkFacadeWorker struct {
	commit  *tradeoffs.MaxRegisterHandle
	durable *tradeoffs.SnapshotHandle
	st      wmState
}

func (w *watermarkFacadeWorker) run(k, from, n int) int {
	fails := 0
	switch k {
	case wmUpdate:
		for _, off := range w.st.offsets[from : from+n] {
			if w.durable.Update(off) != nil {
				fails++
			}
		}
	case wmScan:
		for i := from; i < from+n; i++ {
			w.st.quorums[i] = quorumOf(w.durable.Scan())
		}
	case wmWrite:
		for _, q := range w.st.quorums[from : from+n] {
			if w.commit.Write(q) != nil {
				fails++
			}
			w.st.floor = max(w.st.floor, q)
		}
	case wmRead:
		for i := 0; i < n; i++ {
			fails += w.st.readCheck(w.commit.Read())
		}
	}
	return fails
}

// watermarkAlgo is one watermark round on Algorithm A and the f-array
// snapshot themselves, over primitive.Direct. With acc set, steps are
// counted per op kind instead (a separate pass, since counting slows the
// op it counts).
type watermarkAlgo struct {
	in      *watermarkInput
	commit  *core.MaxRegister
	durable *snapshot.FArray
	acc     *layerAcc
	ws      [procs]*watermarkAlgoWorker
}

func buildWatermarkAlgo(in *watermarkInput, acc *layerAcc) (instance, error) {
	pool := primitive.NewPadded()
	commit, err := core.New(pool, procs, 0)
	if err != nil {
		return nil, err
	}
	durable, err := snapshot.NewFArray(pool, procs, in.totalUpdates()+1)
	if err != nil {
		return nil, err
	}
	a := &watermarkAlgo{in: in, commit: commit, durable: durable, acc: acc}
	for p := range a.ws {
		w := &watermarkAlgoWorker{commit: commit, durable: durable, direct: primitive.NewDirect(p), st: newWMState(in, p)}
		if acc != nil {
			w.cnt = &countingCtx{Direct: w.direct}
		}
		a.ws[p] = w
	}
	return a, nil
}

func (a *watermarkAlgo) workers() [procs]worker {
	var ws [procs]worker
	for p := range ws {
		ws[p] = a.ws[p]
	}
	return ws
}

func (a *watermarkAlgo) scrape() (bool, error) { return false, nil }

func (a *watermarkAlgo) finish() []error {
	d := primitive.NewDirect(0)
	scan := a.durable.Scan(d)
	var errs []error
	if err := a.commit.WriteMax(d, quorumOf(scan)); err != nil {
		errs = append(errs, err)
	}
	return append(errs, checkWatermark(a.in, scan, a.commit.ReadMax(d))...)
}

func (a *watermarkAlgo) close() {
	if a.acc == nil {
		return
	}
	for _, w := range a.ws {
		a.acc.writeSteps += w.steps[wmWrite]
		a.acc.updateSteps += w.steps[wmUpdate]
		a.acc.writes += int64(len(w.st.quorums))
		a.acc.updates += int64(len(w.st.offsets))
	}
}

type watermarkAlgoWorker struct {
	commit  *core.MaxRegister
	durable *snapshot.FArray
	direct  primitive.Direct
	cnt     *countingCtx // counts every step when set
	steps   [4]int64     // by op kind, when counting
	st      wmState
}

func (w *watermarkAlgoWorker) run(k, from, n int) int {
	var ctx primitive.Context = w.direct
	if w.cnt != nil {
		ctx = w.cnt
		before := w.cnt.steps
		defer func() { w.steps[k] += w.cnt.steps - before }()
	}
	fails := 0
	switch k {
	case wmUpdate:
		for _, off := range w.st.offsets[from : from+n] {
			if w.durable.Update(ctx, off) != nil {
				fails++
			}
		}
	case wmScan:
		for i := from; i < from+n; i++ {
			w.st.quorums[i] = quorumOf(w.durable.Scan(ctx))
		}
	case wmWrite:
		for _, q := range w.st.quorums[from : from+n] {
			if w.commit.WriteMax(ctx, q) != nil {
				fails++
			}
			w.st.floor = max(w.st.floor, q)
		}
	case wmRead:
		for i := 0; i < n; i++ {
			fails += w.st.readCheck(w.commit.ReadMax(ctx))
		}
	}
	return fails
}

// snapshotUpdateAllocs measures heap allocations per f-array snapshot
// update on one goroutine over Direct, nothing else running.
func snapshotUpdateAllocs() (float64, error) {
	const n = 4096
	s, err := snapshot.NewFArray(primitive.NewPadded(), procs, n)
	if err != nil {
		return 0, err
	}
	ctx := primitive.NewDirect(0)
	m0 := mallocs()
	for i := int64(1); i <= n; i++ {
		if err := s.Update(ctx, i); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-m0) / n, nil
}
