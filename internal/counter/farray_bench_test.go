package counter

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// BenchmarkFArrayIncrementPadding is the false-sharing experiment of
// EXPERIMENTS.md E11: the same contended f-array increment loop, one
// process per goroutine, with only the register allocator differing —
// one heap allocation per register (NewPool) against the cache-line
// padded arena (NewPadded). Run with:
//
//	go test -run '^$' -bench FArrayIncrementPadding -count 5 ./internal/counter
func BenchmarkFArrayIncrementPadding(b *testing.B) {
	for _, variant := range []struct {
		name string
		pool func() *primitive.Pool
	}{
		{"unpadded", primitive.NewPool},
		{"padded", primitive.NewPadded},
	} {
		b.Run(variant.name, func(b *testing.B) {
			// RunParallel starts GOMAXPROCS goroutines; each gets its own
			// process id, so every leaf keeps a single writer.
			procs := runtime.GOMAXPROCS(0)
			c, err := NewFArray(variant.pool(), procs)
			if err != nil {
				b.Fatal(err)
			}
			var nextID atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				ctx := primitive.NewDirect(int(nextID.Add(1) - 1))
				for pb.Next() {
					if err := c.Increment(ctx); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
