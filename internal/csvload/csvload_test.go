package csvload

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/storage"
)

func TestLoadWithHeader(t *testing.T) {
	in := "id,name,score\n1,ann,3.5\n2,bob,1\n"
	tbl, err := Load("t", strings.NewReader(in), Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	s := tbl.Schema()
	if s.Column(0).Type != storage.TypeInt64 {
		t.Errorf("id type = %s", s.Column(0).Type)
	}
	if s.Column(1).Type != storage.TypeString {
		t.Errorf("name type = %s", s.Column(1).Type)
	}
	if s.Column(2).Type != storage.TypeFloat64 {
		t.Errorf("score type = %s (mixed int+float must widen)", s.Column(2).Type)
	}
	if tbl.Value(0, 0).Int() != 1 || tbl.Value(1, 1).Str() != "bob" || tbl.Value(1, 2).Float() != 1 {
		t.Error("values wrong")
	}
}

func TestLoadWithoutHeader(t *testing.T) {
	tbl, err := Load("t", strings.NewReader("10,xyz\n20,pqr\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema().Column(0).Name != "c0" || tbl.Schema().Column(1).Name != "c1" {
		t.Errorf("auto names wrong: %s", tbl.Schema())
	}
}

func TestLoadNullToken(t *testing.T) {
	in := "k,v\n1,10\n2,NULL\n3, null\n4,30\n"
	tbl, err := Load("t", strings.NewReader(in), Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Value(1, 1).IsNull() || !tbl.Value(2, 1).IsNull() {
		t.Error("NULL token not honored in every case")
	}
	if tbl.Schema().Column(1).Type != storage.TypeInt64 {
		t.Errorf("type inference should skip nulls: %s", tbl.Schema().Column(1).Type)
	}
}

func TestLoadEmptyFieldsAreNullForNumeric(t *testing.T) {
	in := "k,v\n1,\n2,5\n"
	tbl, err := Load("t", strings.NewReader(in), Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Value(0, 1).IsNull() {
		t.Error("empty numeric field should load as NULL")
	}
}

func TestLoadNegativeAndScientific(t *testing.T) {
	in := "a,b\n-5,1e3\n7,-2.5\n"
	tbl, err := Load("t", strings.NewReader(in), Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema().Column(0).Type != storage.TypeInt64 {
		t.Error("negative integers should stay int")
	}
	if tbl.Schema().Column(1).Type != storage.TypeFloat64 {
		t.Error("scientific notation should be float")
	}
	if tbl.Value(0, 1).Float() != 1000 {
		t.Error("1e3 parse wrong")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("t", strings.NewReader(""), Options{}); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Load("t", strings.NewReader(""), Options{Header: true}); err == nil {
		t.Error("empty input with header should error")
	}
	// encoding/csv catches ragged rows itself.
	if _, err := Load("t", strings.NewReader("a,b\n1\n"), Options{Header: true}); err == nil {
		t.Error("ragged record should error")
	}
	// Duplicate header names break schema construction.
	if _, err := Load("t", strings.NewReader("a,a\n1,2\n"), Options{Header: true}); err == nil {
		t.Error("duplicate column names should error")
	}
	// NaN is not a value any statistic can summarize.
	if _, err := Load("t", strings.NewReader("a\n1.5\nNaN\n"), Options{Header: true}); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("NaN should error at line 3, got %v", err)
	}
}

func TestLoadHeaderOnly(t *testing.T) {
	tbl, err := Load("t", strings.NewReader("a,b\n"), Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 || tbl.Schema().NumColumns() != 2 {
		t.Errorf("header-only table wrong: %s", tbl)
	}
	// All-null/empty columns default to string.
	if tbl.Schema().Column(0).Type != storage.TypeString {
		t.Errorf("empty column type = %s, want VARCHAR", tbl.Schema().Column(0).Type)
	}
}

// Errors must carry the source file name and the 1-based line of the bad
// record, so a broken row in a large dataset is findable.
func TestErrorDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		in   string
		opts Options
		want string
	}{
		{
			name: "ragged record",
			in:   "a,b,c\n1,2,3\n4,5\n6,7,8\n",
			opts: Options{Header: true, Filename: "data.csv"},
			want: "data.csv:3: record has 2 fields, want 3",
		},
		{
			name: "ragged without filename",
			in:   "a,b\n1\n",
			opts: Options{Header: true},
			want: "line 2: record has 1 fields, want 2",
		},
		{
			name: "truncated quote",
			in:   "a,b\n1,\"unterminated\n",
			opts: Options{Header: true, Filename: "trunc.csv"},
			want: "trunc.csv:2:",
		},
		{
			name: "bare quote mid-field",
			in:   "a,b\n1,x\"y\n2,z\n",
			opts: Options{Header: true, Filename: "quote.csv"},
			want: "quote.csv:2:",
		},
		{
			name: "empty file names source",
			in:   "",
			opts: Options{Filename: "empty.csv"},
			want: "empty.csv: empty input",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load("t", strings.NewReader(tc.in), tc.opts)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// A multi-line quoted field shifts physical lines past record numbers; the
// reported position must be the physical input line, not the record index.
func TestErrorLineAccountsForMultilineFields(t *testing.T) {
	in := "a,b\n1,\"two\nphysical\nlines\"\n2,3,4\n"
	_, err := Load("t", strings.NewReader(in), Options{Header: true, Filename: "ml.csv"})
	if err == nil {
		t.Fatal("want error")
	}
	// The ragged record is record 3 but starts on physical line 5.
	if !strings.Contains(err.Error(), "ml.csv:5:") {
		t.Errorf("error %q should point at physical line 5", err)
	}
}

// An injected I/O fault at the load probe surfaces as an error naming the
// source, proving data-file failures cannot crash or wedge a load.
func TestLoadFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("simulated I/O error")
	faultinject.Enable(PointLoad, faultinject.Fault{Err: boom, Times: 1})
	_, err := Load("t", strings.NewReader("a\n1\n"), Options{Header: true, Filename: "io.csv"})
	if !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	if !strings.Contains(err.Error(), "io.csv") {
		t.Errorf("error %q should name the file", err)
	}
	// Disarmed: the same load now succeeds.
	if _, err := Load("t", strings.NewReader("a\n1\n"), Options{Header: true}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadQuotedStrings(t *testing.T) {
	in := "k,s\n1,\"hello, world\"\n2,\"line\"\n"
	tbl, err := Load("t", strings.NewReader(in), Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Value(0, 1).Str() != "hello, world" {
		t.Errorf("quoted value = %q", tbl.Value(0, 1).Str())
	}
}
