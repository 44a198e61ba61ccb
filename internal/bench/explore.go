package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/restricteduse/tradeoffs/internal/primitive"
	"github.com/restricteduse/tradeoffs/internal/sim"
)

// ParseWorkers parses a comma-separated worker-count list ("1,2,4,8") for
// the -workers flags of cmd/simtrace and cmd/tradeoff. Unlike the
// experiment sweeps' process counts, a worker count of 1 is meaningful
// (the replay-reuse ablation), so the floor is 1.
func ParseWorkers(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bench: bad worker count %q (want integers >= 1)", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty worker list %q", s)
	}
	return out, nil
}

// This file is the E12 experiment (EXPERIMENTS.md): the fixed reference
// configurations whose exhaustive exploration time is tracked across
// worker counts. One "op" is one complete execution of the simulated
// system; the seq row is the single-core reference sim.Explore and the w1
// row is ExploreParallel with one worker — their gap isolates the replay
// reuse (recycled scaffolding + last-branch continuation) from the
// parallelism.

// row is one measured cell of the E12–E14 sweeps: one workload under one
// engine (exploration) or one counter implementation (contention).
type row struct {
	workload string // "writers", "casinc", "mixed"; the read mix for contention
	engine   string // "seq", "w2", "full", "reduced", "rw2"; "cas" or "sharded"
	writers  int    // contention only
	// ops counts complete executions for the exploration sweeps and
	// counter operations for the contention sweep.
	ops     int64
	elapsed time.Duration
	// allocs is the process-wide heap-allocation count over the region.
	allocs                   uint64
	casAttempts, casFailures int64
}

func (r row) wallMS() float64      { return float64(r.elapsed.Nanoseconds()) / 1e6 }
func (r row) perSec() float64      { return float64(r.ops) / r.elapsed.Seconds() }
func (r row) nsPerOp() float64     { return float64(r.elapsed.Nanoseconds()) / float64(r.ops) }
func (r row) allocsPerOp() float64 { return float64(r.allocs) / float64(r.ops) }

func (r row) casFailureRate() float64 {
	if r.casAttempts == 0 {
		return 0
	}
	return float64(r.casFailures) / float64(r.casAttempts)
}

// measure runs f and returns its wall time and heap-allocation count.
// Mallocs is cumulative and monotone, so the delta is GC-independent; it
// covers every goroutine in the process, which is why measured regions
// never overlap.
func measure(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	f()
	elapsed := time.Since(began)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}

// ExploreConfig parameterizes RunExplore.
type ExploreConfig struct {
	// Procs is the number of simulated processes per workload (default 3).
	// The schedule tree grows factorially in Procs*Steps: keep both small.
	Procs int
	// Steps is the per-process operation count (default 4).
	Steps int
	// Workers lists the ExploreParallel worker counts to sweep
	// (default 1, 2, 4, 8).
	Workers []int
	// Budget caps complete executions per exploration (default 10,000,000).
	Budget int
	// Reduce switches every engine to dynamic partial-order reduction: the
	// seq row becomes sim.ExploreReduced and the wN rows run ExploreParallel
	// with Options.Reduce — the sweep then measures the reduced tree's
	// scaling (cmd/tradeoff -run e12 -dpor). RunDpor measures reduced
	// against unreduced instead.
	Reduce bool
}

// exploreWorkload spawns one reference configuration's programs into s,
// allocating registers from pool. Spawning is deterministic, which both
// engines require.
type exploreWorkload struct {
	name  string
	spawn func(pool *primitive.Pool, s *sim.System, procs, steps int) error
}

var exploreWorkloads = []exploreWorkload{
	// Independent writers: procs processes each writing their own register
	// steps times. No data flow between processes, so the tree is the pure
	// multinomial of interleavings — the scheduler-overhead ceiling.
	{"writers", func(pool *primitive.Pool, s *sim.System, procs, steps int) error {
		for id := 0; id < procs; id++ {
			reg := pool.New(fmt.Sprintf("w%d", id), 0)
			if err := s.Spawn(id, func(ctx primitive.Context) {
				for i := 0; i < steps; i++ {
					ctx.Write(reg, int64(i))
				}
			}); err != nil {
				return err
			}
		}
		return nil
	}},
	// Contended CAS increments on one shared register: schedules diverge on
	// CAS success/failure, so descents have variable length. Retry
	// branching makes this tree explode much faster than the writers'
	// multinomial (2 procs at 4 steps is already ~830k executions), so both
	// dimensions are clamped.
	{"casinc", func(pool *primitive.Pool, s *sim.System, procs, steps int) error {
		if procs > 2 {
			procs = 2
		}
		if steps > 3 {
			steps = 3
		}
		reg := pool.New("shared", 0)
		for id := 0; id < procs; id++ {
			if err := s.Spawn(id, func(ctx primitive.Context) {
				for i := 0; i < steps; i++ {
					for {
						v := ctx.Read(reg)
						if ctx.CAS(reg, v, v+1) {
							break
						}
					}
				}
			}); err != nil {
				return err
			}
		}
		return nil
	}},
}

// builders returns the sequential and the recycling (ExploreParallel)
// system constructors for one workload.
func (wl exploreWorkload) builders(procs, steps int) (func() (*sim.System, error), func(*sim.Recycler) (*sim.System, error)) {
	seq := func() (*sim.System, error) {
		s := sim.NewSystem()
		return s, wl.spawn(primitive.NewPool(), s, procs, steps)
	}
	par := func(rec *sim.Recycler) (*sim.System, error) {
		s := rec.NewSystem()
		return s, wl.spawn(rec.Pool(), s, procs, steps)
	}
	return seq, par
}

// noCheck accepts every execution: the sweeps time the engines, not a
// checker.
func noCheck(*sim.System) error { return nil }

// exploreRow runs one exploration and records it as a row.
func exploreRow(wl, engine string, explore func() (int, error)) (row, error) {
	var execs int
	var err error
	elapsed, allocs := measure(func() { execs, err = explore() })
	if err != nil {
		return row{}, fmt.Errorf("bench: %s/%s: %w", wl, engine, err)
	}
	return row{workload: wl, engine: engine, ops: int64(execs), elapsed: elapsed, allocs: allocs}, nil
}

func (cfg ExploreConfig) withDefaults() ExploreConfig {
	if cfg.Procs <= 0 {
		cfg.Procs = 3
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 4
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 8}
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 10_000_000
	}
	return cfg
}

// RunExplore measures exhaustive schedule exploration over the reference
// workloads: one sequential row (engine "seq") per workload, then one
// ExploreParallel row ("w<N>") per requested worker count. Every row of a
// workload must visit the identical number of complete executions — a
// mismatch is an engine bug and fails the run rather than producing a
// silently wrong table.
func RunExplore(cfg ExploreConfig) ([]row, error) {
	cfg = cfg.withDefaults()
	var rows []row
	for _, wl := range exploreWorkloads {
		seqBuild, parBuild := wl.builders(cfg.Procs, cfg.Steps)
		seq, err := exploreRow(wl.name, "seq", func() (int, error) {
			if cfg.Reduce {
				return sim.ExploreReduced(seqBuild, noCheck, cfg.Budget)
			}
			return sim.Explore(seqBuild, noCheck, cfg.Budget)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, seq)

		for _, workers := range cfg.Workers {
			r, err := exploreRow(wl.name, fmt.Sprintf("w%d", workers), func() (int, error) {
				return sim.ExploreParallel(parBuild, noCheck,
					sim.Options{Workers: workers, Budget: cfg.Budget, Reduce: cfg.Reduce})
			})
			if err != nil {
				return nil, err
			}
			if r.ops != seq.ops {
				return nil, fmt.Errorf("bench: explore %s/%s visited %d executions, sequential visited %d",
					wl.name, r.engine, r.ops, seq.ops)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// E12ExploreScaling renders RunExplore as the E12 experiment table
// (EXPERIMENTS.md): one row per engine per workload with the speedup over
// the sequential reference. The seq-vs-w1 rows are the replay-reuse
// ablation; w1-vs-wN the parallel scaling.
func E12ExploreScaling(cfg ExploreConfig) ([]*Table, error) {
	cfg = cfg.withDefaults()
	rows, err := RunExplore(cfg)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("exhaustive exploration scaling (procs=%d steps=%d)", cfg.Procs, cfg.Steps)
	if cfg.Reduce {
		title = fmt.Sprintf("reduced exploration scaling (procs=%d steps=%d, sleep-set DPOR)", cfg.Procs, cfg.Steps)
	}
	t := &Table{
		ID:      "E12",
		Title:   title,
		Columns: []string{"workload", "engine", "executions", "wall_ms", "execs_per_sec", "speedup_vs_seq", "allocs_per_exec"},
		Notes: []string{
			"seq is the single-core reference sim.Explore; wN is ExploreParallel with N workers",
			"the seq->w1 gap isolates replay reuse (recycled scaffolding + last-branch continuation) from parallelism",
			fmt.Sprintf("measured at GOMAXPROCS=%d; on a single-core host the wN rows collapse onto w1 and the speedup is the replay-reuse ablation alone", runtime.GOMAXPROCS(0)),
		},
	}
	if cfg.Reduce {
		t.Notes[0] = "seq is the single-core reduced reference sim.ExploreReduced; wN is ExploreParallel with N workers and Options.Reduce"
		t.Notes = append(t.Notes, "every engine visits the sleep-set-pruned tree (one representative per Mazurkiewicz trace class); E14 measures reduced against unreduced")
	}
	seqWall := make(map[string]float64)
	for _, r := range rows {
		if r.engine == "seq" {
			seqWall[r.workload] = r.wallMS()
		}
		speedup := "-"
		if base := seqWall[r.workload]; base > 0 {
			speedup = fmt.Sprintf("%.2fx", base/r.wallMS())
		}
		t.AddRow(r.workload, r.engine, r.ops,
			fmt.Sprintf("%.1f", r.wallMS()),
			fmt.Sprintf("%.0f", r.perSec()),
			speedup,
			fmt.Sprintf("%.1f", r.allocsPerOp()))
	}
	return []*Table{t}, nil
}
