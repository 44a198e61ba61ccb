package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRunContentionRows(t *testing.T) {
	rows, err := RunContention(ContentionConfig{Writers: []int{1, 2}, OpsPerWriter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8 (2 writer counts x 2 impls x 2 mixes)", len(rows))
	}
	res := make(map[string]row, len(rows))
	for _, r := range rows {
		res[fmt.Sprintf("%s/w%d/%s", r.engine, r.writers, r.workload)] = r
	}
	for _, name := range []string{
		"cas/w1/update", "cas/w1/read1in8",
		"cas/w2/update", "cas/w2/read1in8",
		"sharded/w1/update", "sharded/w1/read1in8",
		"sharded/w2/update", "sharded/w2/read1in8",
	} {
		r, ok := res[name]
		if !ok {
			t.Fatalf("missing row %q", name)
		}
		if r.nsPerOp() <= 0 || r.wallMS() <= 0 {
			t.Errorf("%s: ns/op=%g wall=%gms, want positive", name, r.nsPerOp(), r.wallMS())
		}
	}
	// Every row runs writers*ops operations; the w2 rows double the w1 rows.
	if got := res["cas/w2/update"].ops; got != 400 {
		t.Errorf("w2 row ran %d ops, want 400", got)
	}
	// The pure-update rows on the flat counter are all CAS; the sharded rows
	// spread attempts across stripes but still go through CAS.
	if res["cas/w2/update"].casAttempts == 0 {
		t.Error("flat update row recorded no CAS attempts")
	}
	if res["sharded/w2/update"].casAttempts == 0 {
		t.Error("sharded update row recorded no CAS attempts")
	}
}

func TestE13ContentionSweepTable(t *testing.T) {
	tables, err := E13ContentionSweep(ContentionConfig{Writers: []int{1, 2}, OpsPerWriter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "E13" {
		t.Fatalf("tables %+v, want one E13 table", tables)
	}
	tab := tables[0]
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "1" || tab.Rows[1][0] != "2" {
		t.Fatalf("rows %v, want one per writer count 1, 2", tab.Rows)
	}
	if !strings.HasPrefix(tab.Notes[len(tab.Notes)-1], "crossover: ") {
		t.Fatalf("last note %q does not report the crossover", tab.Notes[len(tab.Notes)-1])
	}
}

func TestRunContentionRejectsBadWriters(t *testing.T) {
	if _, err := RunContention(ContentionConfig{Writers: []int{0}}); err == nil {
		t.Fatal("RunContention accepted a zero writer count")
	}
}

func TestDefaultContentionWriters(t *testing.T) {
	ws := DefaultContentionWriters()
	if len(ws) == 0 || ws[0] != 1 {
		t.Fatalf("default writers %v must start at 1", ws)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] != 2*ws[i-1] {
			t.Fatalf("default writers %v must double", ws)
		}
	}
	if last := ws[len(ws)-1]; last < 8 {
		t.Fatalf("default writers %v must reach at least 8", ws)
	}
}

func TestCrossover(t *testing.T) {
	// mk turns "<impl>/w<writers>/<mix>" -> ns/op into 1-op rows.
	mk := func(cells map[string]float64) []row {
		var rows []row
		for name, ns := range cells {
			r := row{ops: 1, elapsed: time.Duration(ns)}
			if _, err := fmt.Sscanf(strings.ReplaceAll(name, "/", " "), "%s w%d %s", &r.engine, &r.writers, &r.workload); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, r)
		}
		return rows
	}
	cases := []struct {
		name string
		rows map[string]float64
		want int
	}{
		{"sharded wins from w4", map[string]float64{
			"cas/w1/update": 10, "sharded/w1/update": 15,
			"cas/w2/update": 20, "sharded/w2/update": 25,
			"cas/w4/update": 40, "sharded/w4/update": 30,
		}, 4},
		{"never crosses", map[string]float64{
			"cas/w1/update": 10, "sharded/w1/update": 15,
			"cas/w8/update": 20, "sharded/w8/update": 25,
		}, 0},
		{"read rows ignored", map[string]float64{
			"cas/w1/read1in8": 50, "sharded/w1/read1in8": 1,
			"cas/w1/update": 10, "sharded/w1/update": 15,
		}, 0},
		{"empty sweep", nil, 0},
	}
	for _, tc := range cases {
		if got := Crossover(mk(tc.rows)); got != tc.want {
			t.Errorf("%s: Crossover = %d, want %d", tc.name, got, tc.want)
		}
	}
}
