package els

import (
	"strings"
	"testing"
)

func TestLoadCSVPublicAPI(t *testing.T) {
	sys := New()
	csv := "k,v\n1,10\n2,20\n2,30\n"
	if err := sys.LoadCSVReader("T", strings.NewReader(csv), true, 4); err != nil {
		t.Fatal(err)
	}
	card, err := sys.TableCard("T")
	if err != nil || card != 3 {
		t.Errorf("card = %g, err %v", card, err)
	}
	d, _ := sys.ColumnDistinct("T", "k")
	if d != 2 {
		t.Errorf("distinct k = %g", d)
	}
	res, err := sys.Query("SELECT COUNT(*) FROM T WHERE k = 2", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Errorf("count = %d", res.Count)
	}
	// Missing file path errors cleanly.
	if err := sys.LoadCSV("X", "/nonexistent/x.csv", true, 0); err == nil {
		t.Error("missing file should error")
	}
	cols, err := sys.TableColumns("T")
	if err != nil || len(cols) != 2 || cols[0] != "k" {
		t.Errorf("TableColumns = %v, %v", cols, err)
	}
	if _, err := sys.TableColumns("nope"); err == nil {
		t.Error("unknown table should error")
	}
}

func TestFormatAnalyze(t *testing.T) {
	sys := New()
	var rows [][]int64
	for i := int64(0); i < 20; i++ {
		rows = append(rows, []int64{i % 4})
	}
	if err := sys.LoadTable("A", []string{"k"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTable("B", []string{"k"}, rows); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("SELECT COUNT(*) FROM A, B WHERE A.k = B.k", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) == 0 {
		t.Fatal("Nodes should be populated")
	}
	out := res.FormatAnalyze()
	if !strings.Contains(out, "est=") || !strings.Contains(out, "actual=") {
		t.Errorf("FormatAnalyze output:\n%s", out)
	}
	if res.Nodes[0].ActualRows != res.Count {
		t.Errorf("root actual %d != count %d", res.Nodes[0].ActualRows, res.Count)
	}
}
