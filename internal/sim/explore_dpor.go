package sim

import (
	"fmt"
	"sort"
)

// This file is the dynamic partial-order reduction (DPOR) layer of the
// exploration engine. Exhaustive exploration (Explore, ExploreParallel)
// enumerates every interleaving, but most interleavings are redundant:
// schedules that differ only by swapping adjacent *independent* steps —
// steps on different registers, or read-only steps on the same register —
// produce literally the same events, responses, and final memory. Such
// schedules form one Mazurkiewicz trace equivalence class, and a checker
// that inspects only the execution (events, responses, final state) cannot
// distinguish its members, so visiting one representative per class finds
// exactly the same bugs at a fraction of the cost. This is the
// equivalence-class structure of read/write executions that the immediate
// snapshot protocol-complex literature formalizes; operationally we follow
// Godefroid's sleep sets, which prune a sibling branch exactly when the
// commuted interleaving through an earlier sibling has already been
// explored.
//
// Soundness is enforced mechanically rather than by trust:
// CrossCheckReduction runs reduced and unreduced exploration over the same
// configuration and verifies — via canonical-trace hashing over the
// recorded access footprints — that the reduced run covers every
// equivalence class the full run visits. make race-sim runs it at smoke
// size on every push; E14 (`tradeoff -run e14`) records the reduction factors.

// Footprint is one step's shared-memory access: the register index, the
// primitive, and whether the step wrote (a write, or a CAS counted by
// Wrote). Pending.Footprint sets Wrote conservatively for CAS (success
// unknown before execution); Event.Footprint records the actual outcome, so
// a failed CAS — which changed nothing — counts as a read.
type Footprint struct {
	Reg   int
	Kind  OpKind
	Wrote bool
}

// Independent reports whether two steps with these footprints commute: they
// access different registers, or neither writes. Independent steps can be
// swapped in a schedule without changing either step's response, any later
// step, or the final memory — the Mazurkiewicz independence relation the
// sleep sets prune by and the trace canonicalization groups by.
//
// The relation is sound for both footprint flavors, in the required
// direction: exploration decides against Pending footprints (CAS
// conservatively Wrote, never pruning a schedule that could differ), while
// TraceHash groups Event footprints (failed CAS refined to a read, so the
// classes exploration preserves are never split apart by the cross-check).
func Independent(a, b Footprint) bool {
	if a.Reg != b.Reg {
		return true
	}
	return !a.Wrote && !b.Wrote
}

// ExploreReduced enumerates at least one representative of EVERY
// Mazurkiewicz trace equivalence class of the system produced by build —
// instead of every interleaving, as Explore does — invoking check on each
// visited execution and returning how many executions it visited.
//
// The reduction is Godefroid-style sleep sets over the independence
// relation of Independent. Each search node carries a sleep set: processes
// whose pending step already had its subtree explored through an earlier
// sibling of some ancestor, in an order this branch merely commutes. A
// sleeping process is not scheduled at the node; entering a child via
// process p, a process q stays asleep only while its pending step is
// independent of p's (a dependent step wakes it, because the orderings now
// differ observably). The invariants, with the soundness argument, are
// spelled out in docs/exploration.md.
//
// For fully independent programs the schedule tree collapses to a single
// execution; for fully conflicting ones (every step a write to one shared
// register) there is no reduction and the visit set equals Explore's.
// check sees only complete executions, exactly as with Explore, and any
// property of the execution log/final state (linearizability of the
// recorded history, final memory assertions, step counts) is preserved
// class-wide, so checking representatives has identical bug-finding power.
//
// build must be deterministic, and budget behaves exactly as in Explore:
// the returned count equals the number of check calls, and reaching an
// execution beyond the cap returns a *BudgetError.
func ExploreReduced(build func() (*System, error), check func(*System) error, budget int) (int, error) {
	executions := 0

	var explore func(prefix, sleep []int) error
	explore = func(prefix, sleep []int) error {
		s, err := build()
		if err != nil {
			return fmt.Errorf("sim: explore build: %w", err)
		}
		defer s.Shutdown()
		if err := s.Run(prefix); err != nil {
			return fmt.Errorf("sim: explore replay: %w", err)
		}
		active := s.Active()
		if len(active) == 0 {
			if executions >= budget {
				return &BudgetError{Budget: budget, Prefix: append([]int(nil), prefix...)}
			}
			executions++
			if err := check(s); err != nil {
				return fmt.Errorf("sim: schedule %v: %w", prefix, err)
			}
			return nil
		}

		fps := pendingFootprints(s, active)
		asleep := make(map[int]bool, len(sleep))
		for _, id := range sleep {
			asleep[id] = true
		}
		// Explore the non-sleeping processes in ascending id order (the
		// deterministic sibling order ExploreParallel's reduced mode
		// reproduces). Once a sibling's subtree is done it joins the sleep
		// set of the later siblings: any schedule starting with a later,
		// independent first move was already visited modulo commutation.
		var explored []int
		for _, id := range active {
			if asleep[id] {
				continue
			}
			childSleep := sleepAfter(sleep, explored, fps, id)
			// Re-slice with a hard cap so sibling branches cannot alias
			// one another's prefix storage.
			if err := explore(append(prefix[:len(prefix):len(prefix)], id), childSleep); err != nil {
				return err
			}
			explored = append(explored, id)
		}
		// A node whose enabled processes are all asleep is fully redundant:
		// every continuation commutes into an already-explored subtree.
		return nil
	}
	if err := explore(nil, nil); err != nil {
		return executions, err
	}
	return executions, nil
}

// pendingFootprints collects the pending-step footprint of every active
// process at the current node.
func pendingFootprints(s *System, active []int) map[int]Footprint {
	fps := make(map[int]Footprint, len(active))
	for _, id := range active {
		pd, ok := s.EnabledOf(id)
		if !ok {
			continue // unreachable: active processes have pending events
		}
		fps[id] = pd.Footprint()
	}
	return fps
}

// sleepAfter builds the sleep set of the child entered by scheduling next:
// every process from the parent's sleep set or its already-explored earlier
// siblings whose pending step is independent of next's. A dependent step
// wakes the process — reordering it against next is observable, so its
// subtree must be explored again on this side.
func sleepAfter(sleep, explored []int, fps map[int]Footprint, next int) []int {
	out := make([]int, 0, len(sleep)+len(explored))
	for _, q := range sleep {
		if Independent(fps[q], fps[next]) {
			out = append(out, q)
		}
	}
	for _, q := range explored {
		if Independent(fps[q], fps[next]) {
			out = append(out, q)
		}
	}
	return out
}

// removeSleeping returns the active processes not in the (ascending) sleep
// set, preserving order.
func removeSleeping(active, sleep []int) []int {
	if len(sleep) == 0 {
		return active
	}
	asleep := make(map[int]bool, len(sleep))
	for _, id := range sleep {
		asleep[id] = true
	}
	out := make([]int, 0, len(active))
	for _, id := range active {
		if !asleep[id] {
			out = append(out, id)
		}
	}
	return out
}

// TraceHash returns a canonical 64-bit hash of the execution's Mazurkiewicz
// trace: two executions of the same deterministic programs hash equal if
// and only if (modulo hash collision) one can be transformed into the other
// by swapping adjacent independent events. It is computed from the Foata
// normal form of the event log's dependence order — each event's level is
// one past the deepest earlier event it depends on (same process, or
// dependent footprints per Independent over *recorded* Event footprints, so
// a failed CAS commutes like the read it effectively was) — with each level
// sorted by process id. Same-process events are totally ordered, so a
// process appears at most once per level and the (level, proc) sort is a
// true canonical form, not just a heuristic.
func TraceHash(events []Event) uint64 {
	n := len(events)
	depth := make([]int, n)
	fps := make([]Footprint, n)
	for i, ev := range events {
		fps[i] = ev.Footprint()
	}
	for i := 0; i < n; i++ {
		d := 0
		for j := 0; j < i; j++ {
			if events[j].Proc == events[i].Proc || !Independent(fps[j], fps[i]) {
				if depth[j] > d {
					d = depth[j]
				}
			}
		}
		depth[i] = d + 1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if depth[i] != depth[j] {
			return depth[i] < depth[j]
		}
		return events[i].Proc < events[j].Proc
	})

	// FNV-1a over the canonical sequence. Every field hashed is invariant
	// under independent-adjacent swaps (Seq is not, and is excluded).
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	for _, i := range order {
		ev := &events[i]
		mix(uint64(depth[i]))
		mix(uint64(ev.Proc))
		mix(uint64(ev.RegID))
		mix(uint64(ev.Kind))
		var ok uint64
		if ev.CASOK {
			ok = 1
		}
		mix(ok)
		mix(uint64(ev.Value))
		mix(uint64(ev.Old))
		mix(uint64(ev.New))
		mix(uint64(ev.Before))
		mix(uint64(ev.After))
	}
	return h
}

// ReductionStats reports one CrossCheckReduction run: the exhaustive and
// reduced execution counts, the number of distinct trace equivalence
// classes the full run visited, and the resulting reduction factor.
type ReductionStats struct {
	FullExecs    int
	ReducedExecs int
	Classes      int
	// Factor is FullExecs / ReducedExecs — the headline cut. ≥ 1 whenever
	// the cross-check passes.
	Factor float64
}

// String renders the stats as the one-line summary the smoke targets print.
func (r ReductionStats) String() string {
	return fmt.Sprintf("full=%d reduced=%d classes=%d reduction=%.1fx",
		r.FullExecs, r.ReducedExecs, r.Classes, r.Factor)
}

// CrossCheckReduction is the mechanical soundness check of the DPOR layer:
// it explores the configuration exhaustively AND reduced, canonicalizes
// every visited execution with TraceHash, and fails unless the reduced run
// covers every trace equivalence class the full run visits (and visits no
// class the full run does not — which would indicate a broken
// canonicalization or a nondeterministic build). budget bounds each run
// independently, exactly as in Explore.
func CrossCheckReduction(build func() (*System, error), budget int) (ReductionStats, error) {
	var stats ReductionStats

	full := make(map[uint64][]int) // class hash -> first schedule seen
	fullExecs, err := Explore(build, func(s *System) error {
		h := TraceHash(s.Events())
		if _, seen := full[h]; !seen {
			full[h] = append([]int(nil), s.Schedule()...)
		}
		return nil
	}, budget)
	if err != nil {
		return stats, fmt.Errorf("sim: crosscheck full exploration: %w", err)
	}

	reduced := make(map[uint64]bool)
	reducedExecs, err := ExploreReduced(build, func(s *System) error {
		reduced[TraceHash(s.Events())] = true
		return nil
	}, budget)
	if err != nil {
		return stats, fmt.Errorf("sim: crosscheck reduced exploration: %w", err)
	}

	stats = ReductionStats{
		FullExecs:    fullExecs,
		ReducedExecs: reducedExecs,
		Classes:      len(full),
	}
	if reducedExecs > 0 {
		stats.Factor = float64(fullExecs) / float64(reducedExecs)
	}

	var missing [][]int
	for h, sched := range full {
		if !reduced[h] {
			missing = append(missing, sched)
		}
	}
	if len(missing) > 0 {
		sortSchedulesLex(missing)
		return stats, fmt.Errorf(
			"sim: DPOR unsound on this configuration: reduced exploration missed %d of %d trace equivalence classes (e.g. the class of schedule %v)",
			len(missing), len(full), missing[0])
	}
	for h := range reduced {
		if _, ok := full[h]; !ok {
			return stats, fmt.Errorf(
				"sim: crosscheck inconsistency: reduced exploration visited a trace class the full exploration never produced (nondeterministic build, or a TraceHash bug)")
		}
	}
	return stats, nil
}

// sortSchedulesLex orders schedules lexicographically so error messages are
// deterministic.
func sortSchedulesLex(schedules [][]int) {
	sort.Slice(schedules, func(i, j int) bool {
		a, b := schedules[i], schedules[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
