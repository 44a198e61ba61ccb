package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures ExploreParallel.
type Options struct {
	// Workers is the number of worker goroutines partitioning the schedule
	// tree; <= 0 means runtime.GOMAXPROCS(0). Workers == 1 still benefits
	// from replay reuse (recycled scaffolding, last-branch continuation),
	// which is the ablation E12 (`tradeoff -run e12`) records against the
	// sequential Explore.
	Workers int

	// Budget caps the number of complete executions, exactly like Explore's
	// budget argument: reaching one beyond the cap aborts the exploration
	// with a *BudgetError. Workers race toward the cap, so executions beyond
	// Budget may transiently be reached, but — matching the sequential
	// engines — over-budget executions are neither counted nor checked: the
	// returned count equals the number of check calls.
	Budget int

	// Reduce switches the engine to dynamic partial-order reduction: the
	// work-stealing deques carry per-node sleep sets and the visited
	// execution set shrinks from every interleaving to (at least) one
	// representative per Mazurkiewicz trace equivalence class — the same
	// set ExploreReduced visits sequentially. See ExploreReduced and
	// docs/exploration.md; CrossCheckReduction verifies class coverage
	// mechanically. With Reduce set, the execution count is compared
	// against ExploreReduced, not Explore.
	Reduce bool
}

// Build constructs one replay instance for parallel exploration. It must be
// deterministic: every call must produce the same programs over the same
// registers, in the same order — the requirement Explore already imposes,
// now per worker.
//
// The worker's Recycler is offered for replay reuse: builders that allocate
// registers from rec.Pool() and systems from rec.NewSystem() recycle
// storage across the worker's thousands of rebuilds. Ignoring rec and
// calling primitive.NewPool/NewSystem directly is always correct, just
// slower.
type Build func(rec *Recycler) (*System, error)

// ExploreParallel enumerates EVERY schedule of the system produced by
// build, like Explore, but partitions the schedule tree across a
// work-stealing worker pool: each worker owns a deque of frontier prefixes
// (LIFO for the owner, so exploration stays depth-first and prefixes stay
// short; FIFO for thieves, so idle workers steal the shallowest — largest —
// subtrees). It returns how many complete executions were visited.
//
// Two forms of replay reuse cut the per-node rebuild cost. Each worker
// recycles System scaffolding and its register pool through its Recycler
// (see Build). And each rebuild is driven all the way to a leaf: at every
// interior node the worker pushes all children but the last onto its deque
// and *steps the live system* into the last child instead of rebuilding —
// so the number of rebuilds equals the number of complete executions, not
// the number of tree nodes.
//
// The visited execution set is identical to Explore's (the tree is a
// property of the programs, not of the workers) — or, with Options.Reduce,
// to ExploreReduced's: the sleep-set-pruned tree is likewise fixed by the
// programs and the ascending sibling order, so reduction and work stealing
// compose without changing what is visited. Only the visit order differs,
// so check must be order-insensitive. check runs concurrently on
// different workers (each call receives a different *System) and must not
// retain the system, its events, or its schedule beyond the call — the
// worker recycles them immediately after.
//
// The first error (build, replay, over-budget, or check) cancels all
// workers and is returned alongside the number of executions counted so
// far.
//
// The worker pool is scheduler-side concurrency: real goroutines exploring
// simulated schedules, outside the paper's step accounting.
func ExploreParallel(build Build, check func(*System) error, opts Options) (int, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &exploreEngine{
		build:  build,
		check:  check,
		budget: opts.Budget,
		reduce: opts.Reduce,
		pool:   make([]*exploreWorker, workers),
	}
	for i := range e.pool {
		e.pool[i] = &exploreWorker{rec: NewRecycler()}
	}

	// Seed worker 0 with the root node (the empty schedule, empty sleep set).
	e.outstanding.Store(1)
	e.pool[0].push(frontierNode{})

	var wg sync.WaitGroup
	for i := range e.pool {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			e.run(idx)
		}(i)
	}
	wg.Wait()

	execs := int(e.execs.Load())
	e.errMu.Lock()
	err := e.err
	e.errMu.Unlock()
	return execs, err
}

// exploreEngine is the state shared by all workers of one ExploreParallel
// call.
type exploreEngine struct {
	build  Build
	check  func(*System) error
	budget int
	reduce bool // sleep-set DPOR (Options.Reduce)

	pool        []*exploreWorker
	execs       atomic.Int64 // complete executions visited (and checked)
	outstanding atomic.Int64 // frontier nodes queued or in flight
	stop        atomic.Bool  // first-error (or budget) cancellation

	errMu sync.Mutex
	err   error
}

// frontierNode is one queued subtree root: the schedule prefix reaching it
// and — in reduced mode — the sleep set it was entered with (ascending
// process ids; always nil when the engine is not reducing).
type frontierNode struct {
	prefix []int
	sleep  []int
}

// exploreWorker owns one deque of frontier nodes and one recycler. The
// deque is mutex-guarded: the owner touches it once per interior node and
// thieves only when idle, so contention is negligible next to the channel
// rendezvous of replaying a prefix.
type exploreWorker struct {
	mu    sync.Mutex
	deque []frontierNode
	rec   *Recycler
}

// push appends a node at the owner's (tail) end.
func (w *exploreWorker) push(node frontierNode) {
	w.mu.Lock()
	w.deque = append(w.deque, node)
	w.mu.Unlock()
}

// pop removes the most recently pushed node (tail: depth-first).
func (w *exploreWorker) pop() (frontierNode, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.deque)
	if n == 0 {
		return frontierNode{}, false
	}
	p := w.deque[n-1]
	w.deque[n-1] = frontierNode{}
	w.deque = w.deque[:n-1]
	return p, true
}

// stealFrom removes the oldest node (head: the shallowest subtree, so a
// thief walks away with as much work as one handoff can carry).
func (w *exploreWorker) stealFrom() (frontierNode, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.deque) == 0 {
		return frontierNode{}, false
	}
	p := w.deque[0]
	w.deque[0] = frontierNode{}
	w.deque = w.deque[1:]
	return p, true
}

// run is one worker's loop: drain own deque, steal when empty, exit when
// the frontier is globally exhausted or the engine is cancelled.
func (e *exploreEngine) run(idx int) {
	w := e.pool[idx]
	for {
		if e.stop.Load() {
			return
		}
		node, ok := w.pop()
		if !ok {
			node, ok = e.steal(idx)
		}
		if !ok {
			if e.outstanding.Load() == 0 {
				return
			}
			// Another worker holds the remaining frontier in flight; yield
			// rather than spin so the simulated process goroutines get the
			// cores.
			time.Sleep(10 * time.Microsecond)
			continue
		}
		e.descend(w, node)
		e.outstanding.Add(-1)
	}
}

// steal scans the other workers round-robin for a node to take.
func (e *exploreEngine) steal(idx int) (frontierNode, bool) {
	for i := 1; i < len(e.pool); i++ {
		victim := e.pool[(idx+i)%len(e.pool)]
		if p, ok := victim.stealFrom(); ok {
			return p, ok
		}
	}
	return frontierNode{}, false
}

// descend rebuilds a system, replays the node's prefix, and drives the live
// system all the way to a complete execution, pushing every non-final child
// encountered on the way down as new frontier nodes (last-branch
// continuation: one rebuild per leaf, not per node). In reduced mode the
// children are the non-sleeping processes and each pushed node carries the
// sleep set it must be entered with; which child the worker continues into
// does not matter, because a child's sleep set depends only on the fixed
// ascending sibling order, never on exploration order — that is what makes
// sleep sets safe to partition across thieves.
func (e *exploreEngine) descend(w *exploreWorker, node frontierNode) {
	s, err := e.build(w.rec)
	if err != nil {
		e.fail(fmt.Errorf("sim: explore build: %w", err))
		return
	}
	defer w.rec.Release(s)
	if err := s.Run(node.prefix); err != nil {
		e.fail(fmt.Errorf("sim: explore replay: %w", err))
		return
	}
	sleep := node.sleep

	for {
		if e.stop.Load() {
			return
		}
		active := s.Active()
		if len(active) == 0 {
			// Budget test mirroring the sequential engines: the execution
			// that would exceed the cap is un-counted again and reported,
			// so the final count equals the number of check calls.
			execs := e.execs.Add(1)
			if execs > int64(e.budget) {
				e.execs.Add(-1)
				e.fail(&BudgetError{Budget: e.budget, Prefix: append([]int(nil), s.Schedule()...)})
				return
			}
			if err := e.check(s); err != nil {
				e.fail(fmt.Errorf("sim: schedule %v: %w", append([]int(nil), s.Schedule()...), err))
			}
			return
		}

		next := active
		var fps map[int]Footprint
		if e.reduce {
			next = removeSleeping(active, sleep)
			if len(next) == 0 {
				// Sleep-set blocked: every continuation commutes into an
				// already-explored subtree. Not an execution; abandon.
				return
			}
			fps = pendingFootprints(s, active)
		}
		if len(next) > 1 {
			cur := s.Schedule()
			for i, id := range next[:len(next)-1] {
				child := make([]int, len(cur)+1)
				copy(child, cur)
				child[len(cur)] = id
				var childSleep []int
				if e.reduce {
					childSleep = sleepAfter(sleep, next[:i], fps, id)
				}
				e.outstanding.Add(1)
				w.push(frontierNode{prefix: child, sleep: childSleep})
			}
		}
		last := next[len(next)-1]
		if e.reduce {
			sleep = sleepAfter(sleep, next[:len(next)-1], fps, last)
		}
		if _, err := s.Step(last); err != nil {
			e.fail(fmt.Errorf("sim: explore step: %w", err))
			return
		}
	}
}

// fail records the first error and cancels every worker.
func (e *exploreEngine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.stop.Store(true)
}
