package bench

import (
	"testing"
)

// smallExploreCfg keeps the exhaustive trees tiny so the suite stays fast.
var smallExploreCfg = ExploreConfig{Procs: 2, Steps: 2, Workers: []int{1, 2}, Budget: 100000}

// indexRows keys rows by "<workload>/<engine>".
func indexRows(rows []row) map[string]row {
	m := make(map[string]row, len(rows))
	for _, r := range rows {
		m[r.workload+"/"+r.engine] = r
	}
	return m
}

func TestRunExploreRows(t *testing.T) {
	rows, err := RunExplore(smallExploreCfg)
	if err != nil {
		t.Fatal(err)
	}
	res := indexRows(rows)
	if len(res) != 6 {
		t.Fatalf("%d rows, want 6 (seq + w1 + w2 per workload)", len(res))
	}
	for _, name := range []string{
		"writers/seq", "writers/w1", "writers/w2",
		"casinc/seq", "casinc/w1", "casinc/w2",
	} {
		r, ok := res[name]
		if !ok {
			t.Fatalf("missing row %q", name)
		}
		if r.perSec() <= 0 || r.wallMS() <= 0 {
			t.Errorf("%s: execs/sec=%g wall=%gms, want positive", name, r.perSec(), r.wallMS())
		}
	}
	// Two independent 2-step writers: C(4,2) = 6 executions, on every row.
	for _, engine := range []string{"seq", "w1", "w2"} {
		if got := res["writers/"+engine].ops; got != 6 {
			t.Errorf("writers/%s visited %d executions, want 6", engine, got)
		}
	}
	// Contended CAS retries branch, so the tree is larger than the
	// multinomial of the same shape.
	if got := res["casinc/seq"].ops; got <= 6 {
		t.Errorf("casinc/seq visited %d executions, want more than writers' 6", got)
	}
}
