package main

import "math/rand"

// procs is the number of worker goroutines, and of object processes, in
// every workload: one per core of the 2-core hosts the benchmark was
// sized on.
const procs = 2

// segment is a run of n same-kind ops in one process's stream; from is
// the index of its first op among that process's ops of the kind, which
// is where per-op inputs (values, injected errors) are looked up.
type segment struct {
	kind int
	from int
	n    int
}

// rng gives process p of a run its own seeded source, so each process's
// stream depends only on the seed and its id.
func rng(seed int64, p int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(p)))
}

// Op kinds of the watermark workload.
const (
	wmUpdate = iota
	wmScan
	wmWrite
	wmRead
)

var watermarkKinds = []string{"update", "scan", "write", "read"}

// watermarkSize shapes one watermark round: each process runs cycles of
// updateBlock durable-offset updates, updateBlock/2 scans, as many
// quorum writes, and 64*updateBlock commit-index reads; process 0
// renders /metrics every scrapeEvery of its ops.
type watermarkSize struct {
	cycles      int
	updateBlock int
	scrapeEvery int
}

// watermarkInput is one seeded watermark round.
type watermarkInput struct {
	size watermarkSize
	segs [procs][]segment
	// offsets[p][i] is the durable offset process p publishes with its
	// i-th update: a running sum of seeded appends of 1 to 4 entries.
	offsets [procs][]int64
	updates [procs]int
	scans   [procs]int
	reads   [procs]int
	skew    int64
}

func genWatermark(seed int64, size watermarkSize) *watermarkInput {
	in := &watermarkInput{size: size}
	u := size.updateBlock
	for p := 0; p < procs; p++ {
		r := rng(seed, p)
		// Odd processes start half a read phase later, so the replicas'
		// update bursts do not coincide. Two writers contending on one
		// f-array root make per-op costs swing by a third from one run to
		// the next on a 2-core host (see the counter rung), which would
		// bury the read path this workload measures.
		lag := 0
		if p%2 == 1 {
			lag = 32 * u
			in.segs[p] = append(in.segs[p], segment{kind: wmRead, from: 0, n: lag})
			in.reads[p] = lag
		}
		for c := 0; c < size.cycles; c++ {
			reads := 64 * u
			if c == size.cycles-1 {
				reads -= lag
			}
			in.segs[p] = append(in.segs[p],
				segment{kind: wmUpdate, from: in.updates[p], n: u},
				segment{kind: wmScan, from: in.scans[p], n: u / 2},
				segment{kind: wmWrite, from: in.scans[p], n: u / 2},
				segment{kind: wmRead, from: in.reads[p], n: reads})
			in.updates[p] += u
			in.scans[p] += u / 2
			in.reads[p] += reads
		}
		in.offsets[p] = make([]int64, in.updates[p])
		var off int64
		for i := range in.offsets[p] {
			off += 1 + r.Int63n(4)
			in.offsets[p][i] = off
		}
	}
	return in
}

func (in *watermarkInput) ops() int64 {
	var n int64
	for p := 0; p < procs; p++ {
		n += int64(in.updates[p] + 2*in.scans[p] + in.reads[p])
	}
	return n
}

// totalUpdates is the snapshot's restricted-use update budget for a round.
func (in *watermarkInput) totalUpdates() int64 {
	var n int64
	for p := 0; p < procs; p++ {
		n += int64(in.updates[p])
	}
	return n
}

// finalQuorum is the commit index a round must end at: the offset durable
// on both replicas once both have published their last update.
func (in *watermarkInput) finalQuorum() int64 {
	q := in.offsets[0][len(in.offsets[0])-1]
	for p := 1; p < procs; p++ {
		if last := in.offsets[p][len(in.offsets[p])-1]; last < q {
			q = last
		}
	}
	return q
}
