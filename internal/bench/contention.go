package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/restricteduse/tradeoffs/internal/counter"
	"github.com/restricteduse/tradeoffs/internal/counter/sharded"
	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// This file is the E13 contention sweep: the flat CAS counter against the
// elastic sharded counter across a writer-count × read-mix grid, locating
// the flat↔sharded crossover empirically. It is the real-hardware mirror
// of the paper's asymptotic claim — the flat counter is read-optimal and
// serializes writers on one cache line; the striped counter buys update
// scalability with O(stripes) reads — so the interesting output is where
// the ns/op curves cross as writers grow, and what the extra read cost is
// at each point.

// ContentionConfig parameterizes RunContention.
type ContentionConfig struct {
	// Writers lists the writer counts to sweep (default: powers of two
	// from 1 through max(8, 2*GOMAXPROCS) — past GOMAXPROCS the writers
	// oversubscribe, which still exercises preemption-driven CAS
	// interleaving on small hosts).
	Writers []int
	// OpsPerWriter is the per-writer operation count (default 20000).
	OpsPerWriter int
}

// DefaultContentionWriters returns the default sweep axis.
func DefaultContentionWriters() []int {
	max := 2 * runtime.GOMAXPROCS(0)
	if max < 8 {
		max = 8
	}
	var ws []int
	for w := 1; w <= max; w *= 2 {
		ws = append(ws, w)
	}
	return ws
}

// contentionImpls builds the two counters under comparison on fresh
// padded pools.
func contentionImpls(writers int) (map[string]counter.Counter, error) {
	flat, err := counter.NewCAS(primitive.NewPadded(), 0)
	if err != nil {
		return nil, err
	}
	// One extra slot: reads in the mixed workload come from the writers
	// themselves, but the sharded elasticity state is per-process, so the
	// constructor needs the exact process count.
	striped, err := sharded.New(primitive.NewPadded(), writers, sharded.Config{})
	if err != nil {
		return nil, err
	}
	return map[string]counter.Counter{"cas": flat, "sharded": striped}, nil
}

// RunContention executes the sweep: per writer count, both counters under
// both read mixes. Mix "update" is pure increments; mix "read1in8"
// interleaves one Read per eight operations on every writer.
func RunContention(cfg ContentionConfig) ([]row, error) {
	if len(cfg.Writers) == 0 {
		cfg.Writers = DefaultContentionWriters()
	}
	if cfg.OpsPerWriter <= 0 {
		cfg.OpsPerWriter = 20000
	}
	for _, w := range cfg.Writers {
		if w < 1 {
			return nil, fmt.Errorf("bench: contention writer count %d < 1", w)
		}
	}

	var rows []row
	for _, writers := range cfg.Writers {
		impls, err := contentionImpls(writers)
		if err != nil {
			return nil, err
		}
		for _, implName := range []string{"cas", "sharded"} {
			c := impls[implName]
			for _, mix := range []struct {
				name  string
				every int // one Read per this many ops; 0 = never
			}{
				{"update", 0},
				{"read1in8", 8},
			} {
				r, err := runWriters(writers, cfg.OpsPerWriter, func(ctx primitive.Context, i int) error {
					if mix.every > 0 && i%mix.every == 0 {
						c.Read(ctx)
						return nil
					}
					return c.Increment(ctx)
				})
				if err != nil {
					return nil, fmt.Errorf("bench: contention %s/w%d/%s: %w", implName, writers, mix.name, err)
				}
				r.workload, r.engine, r.writers = mix.name, implName, writers
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// runWriters drives writers goroutines through ops calls of op each, after
// a common start barrier, on step-counting contexts so the row carries the
// CAS-failure rate.
func runWriters(writers, ops int, op func(ctx primitive.Context, i int) error) (row, error) {
	col := obs.NewCollector(writers, nil)
	start := make(chan struct{})
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for id := 0; id < writers; id++ {
		ctx := col.Context(id, primitive.NewDirect(id))
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-start
			for i := 0; i < ops; i++ {
				if err := op(ctx, i); err != nil {
					errs[id] = fmt.Errorf("process %d op %d: %w", id, i, err)
					return
				}
			}
		}(id)
	}
	elapsed, allocs := measure(func() {
		close(start)
		wg.Wait()
	})
	st := col.Snapshot()
	return row{
		ops:         int64(writers) * int64(ops),
		elapsed:     elapsed,
		allocs:      allocs,
		casAttempts: st.CASAttempts,
		casFailures: st.CASFailures,
	}, errors.Join(errs...)
}

// Crossover scans a contention sweep for the smallest writer count at
// which the sharded counter's pure-update ns/op beats the flat CAS
// counter's, returning 0 if it never does.
func Crossover(rows []row) int {
	type pair struct{ cas, sharded float64 }
	byWriters := make(map[int]*pair)
	for _, r := range rows {
		if r.workload != "update" {
			continue
		}
		p := byWriters[r.writers]
		if p == nil {
			p = &pair{}
			byWriters[r.writers] = p
		}
		switch r.engine {
		case "cas":
			p.cas = r.nsPerOp()
		case "sharded":
			p.sharded = r.nsPerOp()
		}
	}
	crossover := 0
	for w, p := range byWriters {
		if p.cas > 0 && p.sharded > 0 && p.sharded < p.cas && (crossover == 0 || w < crossover) {
			crossover = w
		}
	}
	return crossover
}

// E13ContentionSweep renders RunContention as the E13 experiment table
// (EXPERIMENTS.md): per writer count, both counters' pure-update and
// 1-in-8-read ns/op, the sharded/flat update ratio and each counter's
// CAS-failure rate on pure updates, with the crossover writer count.
func E13ContentionSweep(cfg ContentionConfig) ([]*Table, error) {
	rows, err := RunContention(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E13",
		Title: "flat CAS vs. elastic sharded counter under contention",
		Columns: []string{"writers", "cas_update_ns", "sharded_update_ns", "ratio",
			"cas_read1in8_ns", "sharded_read1in8_ns", "cas_fail_cas", "cas_fail_sharded"},
		Notes: []string{
			"ns/op over all writers' operations; ratio is sharded over flat on pure updates",
			fmt.Sprintf("measured at GOMAXPROCS=%d; past it the writers oversubscribe and time-slice, which leaves little contention for sharding to relieve", runtime.GOMAXPROCS(0)),
		},
	}
	if w := Crossover(rows); w > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("crossover: sharded beats flat on pure updates from %d writers", w))
	} else {
		t.Notes = append(t.Notes, "crossover: none (sharded never beats flat on pure updates in this sweep)")
	}
	// RunContention emits each writer count's rows in the order
	// cas/update, cas/read1in8, sharded/update, sharded/read1in8.
	for i := 0; i+4 <= len(rows); i += 4 {
		casU, casR, shU, shR := rows[i], rows[i+1], rows[i+2], rows[i+3]
		t.AddRow(casU.writers,
			fmt.Sprintf("%.1f", casU.nsPerOp()),
			fmt.Sprintf("%.1f", shU.nsPerOp()),
			fmt.Sprintf("%.2fx", shU.nsPerOp()/casU.nsPerOp()),
			fmt.Sprintf("%.1f", casR.nsPerOp()),
			fmt.Sprintf("%.1f", shR.nsPerOp()),
			fmt.Sprintf("%.3f", casU.casFailureRate()),
			fmt.Sprintf("%.3f", shU.casFailureRate()))
	}
	return []*Table{t}, nil
}
