// Package storage implements the in-memory relational storage substrate used
// by the estimation library, the optimizer and the executor. Tables are
// column-major, append-only collections of typed values. The package has no
// dependencies outside the Go standard library.
//
// The storage layer deliberately stays small: it provides exactly what a
// query optimizer's test harness needs — typed columns, cheap scans, row
// materialization, and deterministic ordering — without transactions,
// durability or concurrency control, none of which the paper's experiments
// exercise.
package storage

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies the runtime type of a Value and of a table column.
type Type int

// The supported column types. The paper's experiments only require integer
// join columns, but strings, floats and booleans are supported so that the
// library is usable on realistic schemas.
const (
	// TypeInvalid is the zero Type; it is never a valid column type.
	TypeInvalid Type = iota
	// TypeInt64 is a 64-bit signed integer.
	TypeInt64
	// TypeFloat64 is a 64-bit IEEE-754 floating point number.
	TypeFloat64
	// TypeString is an immutable UTF-8 string.
	TypeString
	// TypeBool is a boolean.
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "BIGINT"
	case TypeFloat64:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	default:
		return "INVALID"
	}
}

// Valid reports whether t is one of the defined column types.
func (t Type) Valid() bool {
	return t > TypeInvalid && t <= TypeBool
}

// Width returns the estimated storage width of a value of this type in
// bytes. It is used by the cost model to translate cardinalities into page
// counts.
func (t Type) Width() int {
	switch t {
	case TypeInt64, TypeFloat64:
		return 8
	case TypeString:
		return 16 // average assumption; catalog stats can refine this
	case TypeBool:
		return 1
	default:
		return 0
	}
}

// Value is a dynamically typed scalar. The zero Value is the SQL NULL of an
// invalid type; use the typed constructors to build valid values.
type Value struct {
	typ  Type
	null bool
	i    int64
	f    float64
	s    string
	b    bool
}

// Int64 returns an int64 Value.
func Int64(v int64) Value { return Value{typ: TypeInt64, i: v} }

// Float64 returns a float64 Value.
func Float64(v float64) Value { return Value{typ: TypeFloat64, f: v} }

// String64 returns a string Value. (Named to avoid clashing with the
// fmt.Stringer method on Value.)
func String64(v string) Value { return Value{typ: TypeString, s: v} }

// Bool returns a boolean Value.
func Bool(v bool) Value { return Value{typ: TypeBool, b: v} }

// Null returns the NULL value of the given type.
func Null(t Type) Value { return Value{typ: t, null: true} }

// Type returns the type of the value.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.null }

// Int returns the integer payload. It panics if the value is not a non-null
// TypeInt64.
func (v Value) Int() int64 {
	if v.typ != TypeInt64 || v.null {
		panic(fmt.Sprintf("storage: Int() on %s", v))
	}
	return v.i
}

// Float returns the float payload. It panics if the value is not a non-null
// TypeFloat64.
func (v Value) Float() float64 {
	if v.typ != TypeFloat64 || v.null {
		panic(fmt.Sprintf("storage: Float() on %s", v))
	}
	return v.f
}

// Str returns the string payload. It panics if the value is not a non-null
// TypeString.
func (v Value) Str() string {
	if v.typ != TypeString || v.null {
		panic(fmt.Sprintf("storage: Str() on %s", v))
	}
	return v.s
}

// BoolVal returns the boolean payload. It panics if the value is not a
// non-null TypeBool.
func (v Value) BoolVal() bool {
	if v.typ != TypeBool || v.null {
		panic(fmt.Sprintf("storage: BoolVal() on %s", v))
	}
	return v.b
}

// AsFloat converts a numeric value to float64 for use in arithmetic over
// mixed int/float comparisons. It panics on non-numeric types.
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TypeInt64:
		return float64(v.i)
	case TypeFloat64:
		return v.f
	default:
		panic(fmt.Sprintf("storage: AsFloat() on %s", v))
	}
}

// String renders the value for diagnostics, EXPLAIN and results (AppendText).
func (v Value) String() string { return string(v.AppendText(make([]byte, 0, 32))) }

// AppendText appends the value's String text to b.
func (v Value) AppendText(b []byte) []byte {
	if v.null {
		return append(b, "NULL"...)
	}
	switch v.typ {
	case TypeInt64:
		return strconv.AppendInt(b, v.i, 10)
	case TypeFloat64:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case TypeString:
		return strconv.AppendQuote(b, v.s)
	case TypeBool:
		if v.b {
			return append(b, "TRUE"...)
		}
		return append(b, "FALSE"...)
	default:
		return append(b, "<invalid>"...)
	}
}

// Key returns a string that is equal for exactly the values that compare
// equal under Compare (AppendKey). Hash joins over boxed keys, GROUP BY's
// output order and the planner's constant predicates key on it.
func (v Value) Key() string { return string(v.AppendKey(make([]byte, 0, 32))) }

// AppendKey appends the value's Key bytes to b.
func (v Value) AppendKey(b []byte) []byte {
	if v.null {
		return append(b, "\x00N"...)
	}
	switch v.typ {
	case TypeInt64:
		return strconv.AppendInt(append(b, 1), v.i, 36)
	case TypeFloat64:
		// Normalize -0.0 to 0.0 so they hash identically, matching Compare.
		f := v.f
		if f == 0 {
			f = 0
		}
		return strconv.AppendUint(append(b, 2), math.Float64bits(f), 36)
	case TypeString:
		return append(append(b, 3), v.s...)
	case TypeBool:
		if v.b {
			return append(b, "\x04t"...)
		}
		return append(b, "\x04f"...)
	default:
		return append(b, "\x00I"...)
	}
}

// Comparable reports whether Compare orders values of types a and b: two of
// the same type, or an int64 and a float64, which compare as float64.
func Comparable(a, b Type) bool {
	numeric := func(t Type) bool { return t == TypeInt64 || t == TypeFloat64 }
	return a == b || numeric(a) && numeric(b)
}

// Compare orders two values of comparable types. NULL sorts before all
// non-null values, matching the sort order used by the sort-merge join.
// It panics if the types are not Comparable (the binder rejects queries
// that would compare them).
func Compare(a, b Value) int {
	if a.typ != b.typ {
		if !Comparable(a.typ, b.typ) {
			panic(fmt.Sprintf("storage: Compare(%s, %s): mismatched types", a.typ, b.typ))
		}
		if a.null || b.null {
			return compareNulls(a.null, b.null)
		}
		return compareFloat(a.AsFloat(), b.AsFloat())
	}
	if a.null || b.null {
		return compareNulls(a.null, b.null)
	}
	switch a.typ {
	case TypeInt64:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case TypeFloat64:
		return compareFloat(a.f, b.f)
	case TypeString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	case TypeBool:
		switch {
		case !a.b && b.b:
			return -1
		case a.b && !b.b:
			return 1
		}
		return 0
	default:
		panic("storage: Compare on invalid type")
	}
}

func compareNulls(an, bn bool) int {
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	default:
		return 1
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
