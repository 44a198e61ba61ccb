package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// primitiveBlock is the ops per timed primitive block: at about 1 ns a
// read, still over 100 clock reads long.
const primitiveBlock = 1 << 17

var primitiveKinds = []string{"read", "write", "cas"}

// runPrimitive is the bottom rung of the watermark ladder: each worker
// times blocks of primitive.Direct reads, writes and CASes on its own
// register of a padded pool until budget elapses, and the ops and
// failures are booked into res. A CAS from the value the worker last
// wrote must succeed; one that fails is counted.
func runPrimitive(res *result, clockNs float64, budget time.Duration) *timings {
	pool := primitive.NewPadded()
	regs := pool.NewSlice("prim", procs, 0)
	ts := newTimers(clockNs, "primitive", primitiveKinds, true)
	var (
		wg    sync.WaitGroup
		fails [procs]int64
	)
	deadline := time.Now().Add(budget)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ctx, r, t := primitive.NewDirect(p), regs[p], ts[p]
			var sink, v int64
			for time.Now().Before(deadline) {
				b := time.Now()
				for i := 0; i < primitiveBlock; i++ {
					sink += ctx.Read(r)
				}
				e := time.Now()
				t.record(0, primitiveBlock, b, e)
				for i := 0; i < primitiveBlock; i++ {
					v++
					ctx.Write(r, v)
				}
				b = time.Now()
				t.record(1, primitiveBlock, e, b)
				for i := 0; i < primitiveBlock; i++ {
					if !ctx.CAS(r, v, v+1) {
						fails[p]++
					}
					v++
				}
				t.record(2, primitiveBlock, b, time.Now())
			}
			if sink < 0 {
				fails[p]++ // values only grow; also keeps the reads live
			}
		}(p)
	}
	wg.Wait()
	m := newTimings(primitiveKinds)
	m.addRound(ts)
	for _, n := range m.ops {
		res.attempted += n
	}
	if err := m.checkGuard("primitive", clockNs); err != nil {
		res.fail(1, err)
	}
	for _, n := range fails {
		if n > 0 {
			res.fail(n, fmt.Errorf("primitive: %d uncontended CASes failed", n))
		}
	}
	return m
}
