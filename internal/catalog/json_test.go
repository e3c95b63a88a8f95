package catalog

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/storage"
)

func TestExportImportJSONRoundTrip(t *testing.T) {
	c := New()
	ts := SimpleTable("R", 1000, map[string]float64{"x": 100, "y": 50})
	ts.Columns["x"].NullCount = 7
	h, err := NewEquiDepthHistogram([]float64{1, 2, 2, 3, 4, 5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts.Columns["x"].Hist = h
	c.MustAddTable(ts)
	c.MustAddTable(SimpleTable("S", 20, map[string]float64{"k": 20}))

	var buf bytes.Buffer
	if err := c.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"name": "R"`, `"card": 1000`, `"histogram"`, `"equi-depth"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}

	c2 := New()
	if err := c2.ImportJSON(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	r := c2.Table("R")
	if r == nil || r.Card != 1000 || r.RowWidth != 16 {
		t.Fatalf("imported R = %+v", r)
	}
	x := r.Column("x")
	if x.Distinct != 100 || x.NullCount != 7 || x.Type != storage.TypeInt64 || !x.HasRange {
		t.Errorf("imported x = %+v", x)
	}
	if x.Hist == nil || x.Hist.Kind != EquiDepth || x.Hist.Total != 8 || len(x.Hist.Buckets) != len(h.Buckets) {
		t.Errorf("imported histogram = %+v", x.Hist)
	}
	// Histogram selectivities survive the round trip.
	if got, want := x.Hist.SelectivityEQ(5), h.SelectivityEQ(5); got != want {
		t.Errorf("histogram selectivity drifted: %g vs %g", got, want)
	}
	if c2.Table("S") == nil {
		t.Error("second table missing")
	}
	// Import replaces same-named tables.
	if err := c2.ImportJSON(strings.NewReader(`{"tables":[{"name":"S","card":99,"row_width":8,"columns":[]}]}`)); err != nil {
		t.Fatal(err)
	}
	if c2.Table("S").Card != 99 {
		t.Error("import should replace S")
	}
}

// ANALYZE builds only equi-depth histograms, but a stats file may carry an
// equi-width one: it imports with its kind, re-exports byte for byte, and
// estimates what it estimated before the trip.
func TestEquiWidthHistogramRoundTrip(t *testing.T) {
	c := New()
	ts := SimpleTable("R", 1000, map[string]float64{"x": 100})
	ts.Columns["x"].Hist = &Histogram{Kind: EquiWidth, Total: 1000, Buckets: []Bucket{
		{Lo: 0, Hi: 25, Count: 600, Distinct: 25},
		{Lo: 25, Hi: 50, Count: 300, Distinct: 25},
		{Lo: 50, Hi: 75, Count: 0, Distinct: 0},
		{Lo: 75, Hi: 99, Count: 100, Distinct: 25},
	}}
	c.MustAddTable(ts)
	var first bytes.Buffer
	if err := c.ExportJSON(&first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), `"equi-width"`) {
		t.Fatalf("export does not name the kind:\n%s", first.String())
	}
	c2 := New()
	if err := c2.ImportJSON(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := c2.ExportJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-export differs:\n%s\nwant\n%s", second.String(), first.String())
	}
	before, after := ts.Columns["x"].Hist, c2.Table("R").Column("x").Hist
	if after.Kind != EquiWidth {
		t.Fatalf("imported kind = %s", after.Kind)
	}
	for c := -5.0; c <= 105; c += 2.5 {
		for _, sel := range []func(*Histogram, float64) float64{
			(*Histogram).SelectivityLT, (*Histogram).SelectivityLE,
			(*Histogram).SelectivityGT, (*Histogram).SelectivityGE, (*Histogram).SelectivityEQ,
		} {
			if got, want := sel(after, c), sel(before, c); got != want {
				t.Fatalf("selectivity at %g: %g after the round trip, %g before", c, got, want)
			}
		}
	}
}

// The exported file carries the format-version header and per-table
// checksums; flipping any byte inside a table section fails the import
// with ErrBadStats naming the table, and truncating the file fails with a
// line diagnostic — never a silent partial import.
func TestImportJSONIntegrity(t *testing.T) {
	c := New()
	c.MustAddTable(SimpleTable("R", 1000, map[string]float64{"x": 100}))
	c.MustAddTable(SimpleTable("S", 20, map[string]float64{"k": 20}))
	var buf bytes.Buffer
	if err := c.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"format_version": 2`) {
		t.Fatalf("export missing format_version header:\n%s", out)
	}
	if strings.Count(out, `"checksum"`) != 2 {
		t.Fatalf("export missing per-table checksums:\n%s", out)
	}

	// Pristine file imports.
	if err := New().ImportJSON(strings.NewReader(out)); err != nil {
		t.Fatalf("pristine import: %v", err)
	}

	// Corrupt a value inside table S's section (not its checksum field).
	corrupt := strings.Replace(out, `"card": 20`, `"card": 21`, 1)
	if corrupt == out {
		t.Fatal("corruption did not apply")
	}
	err := New().ImportJSON(strings.NewReader(corrupt))
	if !errors.Is(err, governor.ErrBadStats) {
		t.Fatalf("corrupted import err = %v, want ErrBadStats", err)
	}
	if !strings.Contains(err.Error(), `"S"`) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted import should name the table: %v", err)
	}

	// Truncate mid-file: ErrBadStats with a line diagnostic.
	err = New().ImportJSON(strings.NewReader(out[:len(out)/2]))
	if !errors.Is(err, governor.ErrBadStats) {
		t.Fatalf("truncated import err = %v, want ErrBadStats", err)
	}
	if !strings.Contains(err.Error(), "line ") {
		t.Fatalf("truncated import should carry a line diagnostic: %v", err)
	}

	// A v2 table section without a checksum is rejected.
	err = New().ImportJSON(strings.NewReader(
		`{"format_version":2,"tables":[{"name":"T","card":1,"row_width":8,"columns":[]}]}`))
	if !errors.Is(err, governor.ErrBadStats) || !strings.Contains(err.Error(), "missing checksum") {
		t.Fatalf("missing checksum err = %v", err)
	}

	// Files from a future format version are rejected, not misread.
	err = New().ImportJSON(strings.NewReader(`{"format_version":99,"tables":[]}`))
	if !errors.Is(err, governor.ErrBadStats) || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version err = %v", err)
	}

	// Legacy files (no header, no checksums) still import.
	legacy := `{"tables":[{"name":"L","card":5,"row_width":8,"columns":[]}]}`
	c2 := New()
	if err := c2.ImportJSON(strings.NewReader(legacy)); err != nil {
		t.Fatalf("legacy import: %v", err)
	}
	if c2.Table("L") == nil {
		t.Fatal("legacy table missing")
	}
}

// The line diagnostic points at the actual break: a syntax error on line 3
// reports line 3.
func TestImportJSONLineDiagnostic(t *testing.T) {
	bad := "{\n\"tables\": [\n{\"name\": !!,\n]}\n"
	err := New().ImportJSON(strings.NewReader(bad))
	if !errors.Is(err, governor.ErrBadStats) {
		t.Fatalf("err = %v, want ErrBadStats", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("diagnostic should point at line 3: %v", err)
	}
}

func TestImportJSONErrors(t *testing.T) {
	c := New()
	if err := c.ImportJSON(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON should error")
	}
	if err := c.ImportJSON(strings.NewReader(`{"tables":[{"name":"T","card":1,"columns":[{"name":"x","type":"weird"}]}]}`)); err == nil {
		t.Error("unknown type should error")
	}
	if err := c.ImportJSON(strings.NewReader(`{"tables":[{"name":"","card":1}]}`)); err == nil {
		t.Error("empty table name should error")
	}
}
