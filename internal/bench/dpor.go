package bench

import (
	"fmt"

	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/sim"
)

// This file is the E14 experiment (EXPERIMENTS.md): the same reference
// configurations the E12 sweep explores, measured under dynamic
// partial-order reduction (sim.ExploreReduced / sim.Options.Reduce) against
// the unreduced sim.Explore baseline. One "op" is one complete execution,
// so the full-vs-reduced execution gap IS the reduction factor. Every run
// cross-checks that the parallel reduced engine visits exactly the
// sequential reduced engine's execution count — a mismatch is an engine bug
// and fails the run.

// DporConfig parameterizes RunDpor.
type DporConfig struct {
	// Procs is the number of simulated processes per workload (default 3).
	Procs int
	// Steps is the per-process operation count (default 3). The unreduced
	// baseline still enumerates the full tree, so ExploreConfig's
	// factorial-growth warning applies unchanged.
	Steps int
	// Workers lists worker counts for the parallel reduced rows (default
	// 1, 2, 4).
	Workers []int
	// Budget caps complete executions per exploration (default 10,000,000).
	Budget int
}

// dporWorkloads extends the explore reference workloads with a partially
// independent one: fully independent (writers) and fully contended (casinc)
// bracket the reduction spectrum, mixed sits between.
var dporWorkloads = append(exploreWorkloads[:len(exploreWorkloads):len(exploreWorkloads)],
	// Mixed sharing: each process writes its own register steps-1 times and
	// then reads one shared register. The writes all commute, the reads
	// commute with each other but order against nothing — most of the tree
	// collapses, a sliver survives.
	exploreWorkload{"mixed", func(pool *primitive.Pool, s *sim.System, procs, steps int) error {
		shared := pool.New("shared", 0)
		for id := 0; id < procs; id++ {
			reg := pool.New(fmt.Sprintf("m%d", id), 0)
			if err := s.Spawn(id, func(ctx primitive.Context) {
				for i := 0; i < steps-1; i++ {
					ctx.Write(reg, int64(i))
				}
				ctx.Read(shared)
			}); err != nil {
				return err
			}
		}
		return nil
	}},
)

func (cfg DporConfig) withDefaults() DporConfig {
	if cfg.Procs <= 0 {
		cfg.Procs = 3
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 3
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4}
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 10_000_000
	}
	return cfg
}

// RunDpor measures dynamic partial-order reduction over the reference
// workloads: per workload, one unreduced sim.Explore row (engine "full"),
// one sequential sim.ExploreReduced row ("reduced"), and one parallel
// reduced row ("rw<N>") per requested worker count. The full row is the
// denominator of the reduction factor; the reduced rows must agree with
// each other exactly (parallel DPOR visits the identical sleep-set-pruned
// tree) and must not exceed the full row.
func RunDpor(cfg DporConfig) ([]row, error) {
	cfg = cfg.withDefaults()
	var rows []row
	for _, wl := range dporWorkloads {
		seqBuild, parBuild := wl.builders(cfg.Procs, cfg.Steps)
		full, err := exploreRow(wl.name, "full", func() (int, error) {
			return sim.Explore(seqBuild, noCheck, cfg.Budget)
		})
		if err != nil {
			return nil, err
		}
		reduced, err := exploreRow(wl.name, "reduced", func() (int, error) {
			return sim.ExploreReduced(seqBuild, noCheck, cfg.Budget)
		})
		if err != nil {
			return nil, err
		}
		if reduced.ops > full.ops {
			return nil, fmt.Errorf("bench: dpor %s: reduced visited %d executions, full visited %d",
				wl.name, reduced.ops, full.ops)
		}
		rows = append(rows, full, reduced)

		for _, workers := range cfg.Workers {
			r, err := exploreRow(wl.name, fmt.Sprintf("rw%d", workers), func() (int, error) {
				return sim.ExploreParallel(parBuild, noCheck,
					sim.Options{Workers: workers, Budget: cfg.Budget, Reduce: true})
			})
			if err != nil {
				return nil, err
			}
			if r.ops != reduced.ops {
				return nil, fmt.Errorf("bench: dpor %s/%s visited %d executions, sequential reduced visited %d",
					wl.name, r.engine, r.ops, reduced.ops)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// E14DporReduction renders RunDpor as the E14 experiment table
// (EXPERIMENTS.md): per workload, the execution counts and wall clock of
// the full, reduced, and parallel-reduced engines, with the reduction
// factor (full executions over that row's executions).
func E14DporReduction(cfg DporConfig) ([]*Table, error) {
	cfg = cfg.withDefaults()
	rows, err := RunDpor(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E14",
		Title:   fmt.Sprintf("dynamic partial-order reduction (procs=%d steps=%d)", cfg.Procs, cfg.Steps),
		Columns: []string{"workload", "engine", "executions", "reduction_vs_full", "wall_ms", "execs_per_sec", "speedup_vs_full"},
		Notes: []string{
			"full is the unreduced sim.Explore baseline; reduced is sleep-set DPOR (sim.ExploreReduced); rwN is ExploreParallel with N workers and Options.Reduce",
			"reduction_vs_full counts executions pruned as trace-equivalent; speedup_vs_full is the resulting wall-clock win",
			"every reduced row visits the identical sleep-set-pruned tree; RunDpor fails on any count mismatch",
			"sim.CrossCheckReduction separately verifies the pruned tree still covers every Mazurkiewicz trace class (make race-sim)",
		},
	}
	var full row
	for _, r := range rows {
		if r.engine == "full" {
			full = r
		}
		reduction, speedup := "-", "-"
		if full.ops > 0 && r.ops > 0 {
			reduction = fmt.Sprintf("%.1fx", float64(full.ops)/float64(r.ops))
		}
		if full.wallMS() > 0 && r.wallMS() > 0 {
			speedup = fmt.Sprintf("%.2fx", full.wallMS()/r.wallMS())
		}
		t.AddRow(r.workload, r.engine, r.ops, reduction,
			fmt.Sprintf("%.1f", r.wallMS()),
			fmt.Sprintf("%.0f", r.perSec()),
			speedup)
	}
	return []*Table{t}, nil
}
