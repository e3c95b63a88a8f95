package storage

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := []struct {
		typ  Type
		want string
	}{
		{TypeInt64, "BIGINT"},
		{TypeFloat64, "DOUBLE"},
		{TypeString, "VARCHAR"},
		{TypeBool, "BOOLEAN"},
		{TypeInvalid, "INVALID"},
		{Type(99), "INVALID"},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.want {
			t.Errorf("Type(%d).String() = %q, want %q", c.typ, got, c.want)
		}
	}
}

func TestTypeValid(t *testing.T) {
	for _, typ := range []Type{TypeInt64, TypeFloat64, TypeString, TypeBool} {
		if !typ.Valid() {
			t.Errorf("%s should be valid", typ)
		}
	}
	if TypeInvalid.Valid() || Type(42).Valid() {
		t.Error("invalid types reported valid")
	}
}

func TestTypeWidth(t *testing.T) {
	if TypeInt64.Width() != 8 || TypeFloat64.Width() != 8 {
		t.Error("numeric widths should be 8")
	}
	if TypeBool.Width() != 1 {
		t.Error("bool width should be 1")
	}
	if TypeString.Width() <= 0 {
		t.Error("string width should be positive")
	}
	if TypeInvalid.Width() != 0 {
		t.Error("invalid width should be 0")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	iv := Int64(42)
	if iv.Type() != TypeInt64 || iv.IsNull() || iv.Int() != 42 {
		t.Errorf("Int64 round-trip failed: %v", iv)
	}
	fv := Float64(2.5)
	if fv.Type() != TypeFloat64 || fv.Float() != 2.5 {
		t.Errorf("Float64 round-trip failed: %v", fv)
	}
	sv := String64("abc")
	if sv.Type() != TypeString || sv.Str() != "abc" {
		t.Errorf("String64 round-trip failed: %v", sv)
	}
	bv := Bool(true)
	if bv.Type() != TypeBool || !bv.BoolVal() {
		t.Errorf("Bool round-trip failed: %v", bv)
	}
	nv := Null(TypeInt64)
	if !nv.IsNull() || nv.Type() != TypeInt64 {
		t.Errorf("Null round-trip failed: %v", nv)
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { String64("x").Int() })
	mustPanic("Float on int", func() { Int64(1).Float() })
	mustPanic("Str on int", func() { Int64(1).Str() })
	mustPanic("BoolVal on int", func() { Int64(1).BoolVal() })
	mustPanic("Int on null", func() { Null(TypeInt64).Int() })
	mustPanic("AsFloat on string", func() { String64("x").AsFloat() })
}

func TestAsFloat(t *testing.T) {
	if Int64(3).AsFloat() != 3.0 {
		t.Error("AsFloat(Int64(3)) != 3.0")
	}
	if Float64(1.5).AsFloat() != 1.5 {
		t.Error("AsFloat(Float64(1.5)) != 1.5")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int64(-7), "-7"},
		{Float64(0.5), "0.5"},
		{String64("hi"), `"hi"`},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{Null(TypeInt64), "NULL"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareInts(t *testing.T) {
	if Compare(Int64(1), Int64(2)) >= 0 {
		t.Error("1 < 2 failed")
	}
	if Compare(Int64(2), Int64(1)) <= 0 {
		t.Error("2 > 1 failed")
	}
	if Compare(Int64(5), Int64(5)) != 0 {
		t.Error("5 == 5 failed")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if Compare(String64("a"), String64("b")) >= 0 {
		t.Error(`"a" < "b" failed`)
	}
	if Compare(String64("b"), String64("a")) <= 0 {
		t.Error(`"b" > "a" failed`)
	}
	if Compare(String64("x"), String64("x")) != 0 {
		t.Error(`"x" == "x" failed`)
	}
	if Compare(Bool(false), Bool(true)) >= 0 {
		t.Error("false < true failed")
	}
	if Compare(Bool(true), Bool(false)) <= 0 {
		t.Error("true > false failed")
	}
	if Compare(Bool(true), Bool(true)) != 0 {
		t.Error("true == true failed")
	}
}

func TestCompareNulls(t *testing.T) {
	n := Null(TypeInt64)
	if Compare(n, Int64(0)) >= 0 {
		t.Error("NULL should sort before non-null")
	}
	if Compare(Int64(0), n) <= 0 {
		t.Error("non-null should sort after NULL")
	}
	if Compare(n, Null(TypeInt64)) != 0 {
		t.Error("NULL should compare equal to NULL for sorting")
	}
}

func TestCompareNumericCrossType(t *testing.T) {
	if Compare(Int64(1), Float64(1.5)) >= 0 {
		t.Error("1 < 1.5 failed across types")
	}
	if Compare(Float64(2.5), Int64(2)) <= 0 {
		t.Error("2.5 > 2 failed across types")
	}
	if Compare(Int64(3), Float64(3.0)) != 0 {
		t.Error("3 == 3.0 failed across types")
	}
	if Compare(Null(TypeInt64), Float64(1)) >= 0 {
		t.Error("NULL int vs float should sort first")
	}
}

func TestCompareMismatchedTypesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on string vs int compare")
		}
	}()
	Compare(String64("a"), Int64(1))
}

func TestKeyDistinguishesTypesAndValues(t *testing.T) {
	vals := []Value{
		Int64(1), Int64(2), Float64(1), String64("1"), Bool(true), Bool(false),
		Null(TypeInt64), String64(""),
	}
	seen := make(map[string]Value)
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("Key collision between %v and %v", prev, v)
		}
		seen[k] = v
	}
}

func TestKeyNegativeZero(t *testing.T) {
	if Float64(0.0).Key() != Float64(math.Copysign(0, -1)).Key() {
		t.Error("0.0 and -0.0 must share a key (they compare equal)")
	}
}

// Property: Key agreement matches Compare equality for int values, and
// AppendKey appends exactly Key's bytes.
func TestKeyMatchesCompareProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int64(a), Int64(b)
		return (va.Key() == vb.Key()) == (Compare(va, vb) == 0) && string(va.AppendKey([]byte("p"))) == "p"+va.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and reflexive on int64.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int64(a), Int64(b)
		return Compare(va, vb) == -Compare(vb, va) && Compare(va, va) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive on triples of int64.
func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := Int64(a), Int64(b), Int64(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
