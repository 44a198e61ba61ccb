package bench

import (
	"testing"
)

func TestRunDporRows(t *testing.T) {
	rows, err := RunDpor(DporConfig{Procs: 2, Steps: 2, Workers: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	res := indexRows(rows)
	for _, wl := range []string{"writers", "casinc", "mixed"} {
		full, ok := res[wl+"/full"]
		if !ok {
			t.Fatalf("missing row %s/full", wl)
		}
		reduced, ok := res[wl+"/reduced"]
		if !ok {
			t.Fatalf("missing row %s/reduced", wl)
		}
		if reduced.ops > full.ops {
			t.Errorf("%s: reduced visited %d executions, full visited %d", wl, reduced.ops, full.ops)
		}
		for _, w := range []string{"rw1", "rw2"} {
			par, ok := res[wl+"/"+w]
			if !ok {
				t.Fatalf("missing row %s/%s", wl, w)
			}
			if par.ops != reduced.ops {
				t.Errorf("%s/%s: parallel reduced visited %d executions, sequential reduced %d",
					wl, w, par.ops, reduced.ops)
			}
		}
	}
	// Independent writers collapse to a single representative execution.
	if got := res["writers/reduced"].ops; got != 1 {
		t.Errorf("writers reduced to %d executions, want 1", got)
	}
	if got := res["writers/full"].ops; got != 6 { // C(4,2) interleavings of 2x2 writes
		t.Errorf("writers full = %d executions, want 6", got)
	}
}

func TestE14DporReductionTable(t *testing.T) {
	tables, err := E14DporReduction(DporConfig{Procs: 2, Steps: 2, Workers: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "E14" {
		t.Fatalf("tables %+v, want one E14 table", tables)
	}
	tab := tables[0]
	// 3 workloads x (full + reduced + rw1).
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows, want 9", len(tab.Rows))
	}
	var sawCollapse bool
	for _, row := range tab.Rows {
		if row[0] == "writers" && row[1] == "reduced" {
			if row[3] != "6.0x" {
				t.Fatalf("writers/reduced reduction = %v, want 6.0x", row[3])
			}
			sawCollapse = true
		}
	}
	if !sawCollapse {
		t.Fatal("no writers/reduced row in E14 table")
	}
}
