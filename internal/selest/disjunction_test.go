package selest

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

func mustDisj(t *testing.T, preds ...expr.Predicate) expr.Disjunction {
	t.Helper()
	d, err := expr.NewDisjunction(preds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDisjunctionSelectivityTwoEqualities(t *testing.T) {
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"x": 10})
	d := mustDisj(t,
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(1)),
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(2)),
	)
	sel, err := DisjunctionSelectivity(ts, d)
	if err != nil {
		t.Fatal(err)
	}
	// 1 - (1 - 0.1)^2 = 0.19 under independence.
	if math.Abs(sel-0.19) > 1e-9 {
		t.Errorf("sel = %g, want 0.19", sel)
	}
}

func TestDisjunctionSelectivityMixed(t *testing.T) {
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"x": 10, "y": 100})
	d := mustDisj(t,
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(1)),  // 0.1
		expr.NewConst(ref("R", "y"), expr.OpLT, storage.Int64(50)), // 0.5
		expr.NewJoin(ref("R", "x"), expr.OpEQ, ref("R", "y")),      // 1/100
	)
	sel, err := DisjunctionSelectivity(ts, d)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.9*0.5*0.99
	if math.Abs(sel-want) > 1e-9 {
		t.Errorf("sel = %g, want %g", sel, want)
	}
}

func TestDisjunctionSelectivityColColNonEq(t *testing.T) {
	ts := catalog.SimpleTable("R", 100, map[string]float64{"a": 10, "b": 10})
	d := mustDisj(t, expr.NewJoin(ref("R", "a"), expr.OpLT, ref("R", "b")))
	sel, err := DisjunctionSelectivity(ts, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel-1.0/3.0) > 1e-9 {
		t.Errorf("sel = %g, want 1/3", sel)
	}
}

func TestDisjunctionSelectivityErrors(t *testing.T) {
	ts := catalog.SimpleTable("R", 100, map[string]float64{"x": 10})
	if _, err := DisjunctionSelectivity(nil, expr.Disjunction{}); err == nil {
		t.Error("nil stats should error")
	}
	if _, err := DisjunctionSelectivity(ts, expr.Disjunction{}); err == nil {
		t.Error("empty disjunction should error")
	}
	bad := expr.Disjunction{Preds: []expr.Predicate{
		expr.NewConst(ref("R", "zz"), expr.OpEQ, storage.Int64(1)),
	}}
	if _, err := DisjunctionSelectivity(ts, bad); err == nil {
		t.Error("unknown column should error")
	}
	join := expr.Disjunction{Preds: []expr.Predicate{
		expr.NewJoin(ref("R", "x"), expr.OpEQ, ref("Q", "y")),
	}}
	if _, err := DisjunctionSelectivity(ts, join); err == nil {
		t.Error("join disjunct should error")
	}
	badCol := expr.Disjunction{Preds: []expr.Predicate{
		expr.NewJoin(ref("R", "x"), expr.OpEQ, ref("R", "zz")),
	}}
	if _, err := DisjunctionSelectivity(ts, badCol); err == nil {
		t.Error("unknown colcol column should error")
	}
}
