package tradeoffs

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/bench"
)

// benchSeed roots every per-process random source, so a benchmark's value
// schedule is identical run to run. Each process offsets the seed by its id
// to decorrelate.
const benchSeed int64 = 20260805

// The E1-E5/E7 benchmarks regenerate the EXPERIMENTS.md tables (shapes, not
// wall-clock: the interesting output is the custom metrics). E6 measures
// real multicore throughput of the public API.

func reportTables(b *testing.B, tables []*bench.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
}

func BenchmarkE1CounterTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.E1CounterTradeoff([]int{16, 64})
		reportTables(b, tables, err)
	}
}

func BenchmarkE2SnapshotTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.E2SnapshotTradeoff([]int{16, 64})
		reportTables(b, tables, err)
	}
}

func BenchmarkE3MaxRegAdversary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.E3MaxRegAdversary([]int{128, 256})
		reportTables(b, tables, err)
	}
}

func BenchmarkE4AlgorithmASteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.E4AlgorithmASteps([]int{64, 1024}, 1024,
			[]int64{1, 16, 256, 1023, 1024, 1 << 20})
		reportTables(b, tables, err)
	}
}

func BenchmarkE5Compare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.E5Compare([]int{16, 64})
		reportTables(b, tables, err)
	}
}

func BenchmarkE7Lemma1Growth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.E7Lemma1Growth(64)
		reportTables(b, tables, err)
	}
}

// --- E6: real-goroutine throughput of the public API ---

const benchProcs = 512

func maxRegisterVariants(b *testing.B) map[string]*MaxRegister {
	b.Helper()
	out := make(map[string]*MaxRegister, 3)
	for name, opts := range map[string][]Option{
		"algorithm-a":   {WithMaxRegisterImpl(MaxRegisterAlgorithmA)},
		"aac":           {WithMaxRegisterImpl(MaxRegisterAAC), WithBound(1 << 20)},
		"unbounded-aac": {WithMaxRegisterImpl(MaxRegisterUnboundedAAC)},
		"cas":           {WithMaxRegisterImpl(MaxRegisterCAS)},
	} {
		reg, err := NewMaxRegister(append(opts, WithProcesses(benchProcs))...)
		if err != nil {
			b.Fatal(err)
		}
		out[name] = reg
	}
	return out
}

func BenchmarkE6MaxRegisterRead(b *testing.B) {
	for name, reg := range maxRegisterVariants(b) {
		b.Run(name, func(b *testing.B) {
			if err := reg.Handle(0).Write(12345); err != nil {
				b.Fatal(err)
			}
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				h := reg.Handle(int(nextID.Add(1)) % benchProcs)
				for pb.Next() {
					h.Read()
				}
			})
		})
	}
}

func BenchmarkE6MaxRegisterWrite(b *testing.B) {
	for name, reg := range maxRegisterVariants(b) {
		b.Run(name, func(b *testing.B) {
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				id := int(nextID.Add(1)) % benchProcs
				h := reg.Handle(id)
				rng := rand.New(rand.NewSource(benchSeed + int64(id)))
				for pb.Next() {
					if err := h.Write(rng.Int63n(1 << 20)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkE6MaxRegisterMixed(b *testing.B) {
	// 95% reads / 5% monotone writes: the watermark-tracking workload the
	// paper's O(1)-read side is built for.
	for name, reg := range maxRegisterVariants(b) {
		b.Run(name, func(b *testing.B) {
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				id := int(nextID.Add(1)) % benchProcs
				h := reg.Handle(id)
				rng := rand.New(rand.NewSource(benchSeed + int64(id)))
				for pb.Next() {
					if rng.Intn(20) == 0 {
						if err := h.Write(rng.Int63n(1 << 20)); err != nil {
							b.Fatal(err)
						}
					} else {
						h.Read()
					}
				}
			})
		})
	}
}

// counterVariants builds counters for throughput benchmarking. The AAC
// counter is excluded from the unbounded increment benchmark: it is a
// restricted-use object whose memory is Theta(N * limit) registers, so
// "increment forever" is outside its specification (its exact increment
// step cost is measured in experiment E5 instead). It appears in the read
// benchmark with a small limit.
func counterVariants(b *testing.B, withAAC bool) map[string]*Counter {
	b.Helper()
	opts := map[string][]Option{
		"farray": {WithCounterImpl(CounterFArray)},
		"cas":    {WithCounterImpl(CounterCAS)},
	}
	if withAAC {
		opts["aac"] = []Option{WithCounterImpl(CounterAAC), WithLimit(4096)}
	}
	out := make(map[string]*Counter, len(opts))
	for name, o := range opts {
		ctr, err := NewCounter(append(o, WithProcesses(benchProcs))...)
		if err != nil {
			b.Fatal(err)
		}
		out[name] = ctr
	}
	return out
}

func BenchmarkE6CounterIncrement(b *testing.B) {
	for name, ctr := range counterVariants(b, false /* withAAC */) {
		b.Run(name, func(b *testing.B) {
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				h := ctr.Handle(int(nextID.Add(1)) % benchProcs)
				for pb.Next() {
					if err := h.Increment(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkE6CounterAdd(b *testing.B) {
	// The WithBatching amortization sweep: identical f-array counter and
	// schedule of logical increments, coalescing window varied. w1 is
	// batching off (every Add propagates); larger windows propagate once
	// per window, so ns/op should fall roughly linearly until the local
	// buffering cost dominates.
	for _, window := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("farray-w%d", window), func(b *testing.B) {
			ctr, err := NewCounter(WithCounterImpl(CounterFArray),
				WithProcesses(benchProcs), WithBatching(window))
			if err != nil {
				b.Fatal(err)
			}
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				h := ctr.Handle(int(nextID.Add(1)) % benchProcs)
				for pb.Next() {
					if err := h.Add(1); err != nil {
						b.Fatal(err)
					}
				}
				if err := h.Flush(); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func BenchmarkE6CounterRead(b *testing.B) {
	for name, ctr := range counterVariants(b, true /* withAAC */) {
		b.Run(name, func(b *testing.B) {
			if err := ctr.Handle(0).Increment(); err != nil {
				b.Fatal(err)
			}
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				h := ctr.Handle(int(nextID.Add(1)) % benchProcs)
				for pb.Next() {
					h.Read()
				}
			})
		})
	}
}

// snapshotOptions lists the snapshot variants; restricted-use budgets are
// sized per benchmark run from b.N (snapshots retain immutable views, so an
// "update forever" benchmark is outside their specification — the budget
// makes the run's memory explicit instead).
const benchSnapSegments = 16

func snapshotOptions() map[string][]Option {
	return map[string][]Option{
		"farray":        {WithSnapshotImpl(SnapshotFArray)},
		"afek":          {WithSnapshotImpl(SnapshotAfek)},
		"doublecollect": {WithSnapshotImpl(SnapshotDoubleCollect)},
	}
}

func newBenchSnapshot(b *testing.B, opts []Option, budget int64) *Snapshot {
	b.Helper()
	snap, err := NewSnapshot(append(opts,
		WithProcesses(benchSnapSegments),
		WithLimit(budget),
	)...)
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

func BenchmarkE6SnapshotScan(b *testing.B) {
	for name, opts := range snapshotOptions() {
		b.Run(name, func(b *testing.B) {
			snap := newBenchSnapshot(b, opts, 1024)
			if err := snap.Handle(0).Update(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				h := snap.Handle(int(nextID.Add(1)) % benchSnapSegments)
				for pb.Next() {
					h.Scan()
				}
			})
		})
	}
}

func BenchmarkE6ConsensusDecidedRead(b *testing.B) {
	// The post-decision fast path: one register read. (A small round
	// budget keeps construction cheap; reads never touch the rounds.)
	c, err := NewConsensus(WithProcesses(benchProcs), WithLimit(8))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Handle(0).Propose(7); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var nextID atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		h := c.Handle(int(nextID.Add(1)) % benchProcs)
		for pb.Next() {
			if h.Decided() != 7 {
				b.Fail()
			}
		}
	})
}

func BenchmarkE6ConsensusPropose(b *testing.B) {
	// Uncontended propose latency on fresh instances (contended propose
	// is inherently unbounded — obstruction freedom). Instance setup is
	// excluded via the timer.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewConsensus(WithProcesses(4), WithLimit(4))
		if err != nil {
			b.Fatal(err)
		}
		h := c.Handle(0)
		b.StartTimer()
		if _, err := h.Propose(int64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6SnapshotUpdate(b *testing.B) {
	for name, opts := range snapshotOptions() {
		b.Run(name, func(b *testing.B) {
			snap := newBenchSnapshot(b, opts, int64(b.N)+benchSnapSegments+1)
			b.ResetTimer()
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				id := int(nextID.Add(1)) % benchSnapSegments
				h := snap.Handle(id)
				v := int64(0)
				for pb.Next() {
					v++
					if err := h.Update(v); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
