package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/storage"
)

// fuzzSeedExport builds a representative catalog and returns its v2 export
// — the corpus seed every corruption is derived from.
func fuzzSeedExport(t testing.TB) []byte {
	t.Helper()
	c := New()
	c.MustAddTable(SimpleTable("r", 1000, map[string]float64{"a": 100, "b": 7}))
	c.MustAddTable(SimpleTable("s", 250, map[string]float64{"a": 50}))
	ts := c.Table("s")
	ts.Column("a").Hist = &Histogram{
		Kind:  EquiDepth,
		Total: 250,
		Buckets: []Bucket{
			{Lo: 0, Hi: 24, Count: 125, Distinct: 25},
			{Lo: 24, Hi: 49, Count: 125, Distinct: 25},
		},
	}
	var buf bytes.Buffer
	if err := c.ExportJSON(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// FuzzImportJSON pins the stats reader's failure contract: for any input —
// truncations, flipped bytes, random garbage — ImportJSON either succeeds
// or fails with an error wrapping ErrBadStats. It must never panic and
// never return an unclassified error, because the import path is fed
// operator-supplied files and WAL payloads recovered from a crash.
func FuzzImportJSON(f *testing.F) {
	seed := fuzzSeedExport(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])                                                                                                    // truncated mid-section
	f.Add(bytes.Replace(seed, []byte("card"), []byte("cord"), 1))                                                                // mangled key
	f.Add([]byte(`{"tables":[{"name":"legacy","card":10,"row_width":8,"columns":[{"name":"x","type":"int64","distinct":5}]}]}`)) // legacy v1, no checksums
	f.Add([]byte(`{"format_version":2,"tables":[{"name":"t","card":1,"checksum":"00000000"}]}`))                                 // wrong checksum
	f.Add([]byte(`{"format_version":99,"tables":[]}`))                                                                           // future format
	f.Add([]byte(`{"tables":[{"card":1}]}`))                                                                                     // nameless table
	f.Add([]byte(`{"tables":[{"name":"t","card":-5}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add(infiniteExport(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New()
		err := c.ImportJSON(bytes.NewReader(data))
		if err != nil && !errors.Is(err, governor.ErrBadStats) {
			t.Fatalf("import error outside ErrBadStats: %v", err)
		}
	})
}

// infiniteExport is the export of a float64 column Analyze bounds by -Inf
// and +Inf.
func infiniteExport(t testing.TB) []byte {
	t.Helper()
	c := New()
	c.MustAddTable(&TableStats{Name: "t", Card: 4, Columns: map[string]*ColumnStats{"x": {
		Name: "x", Type: storage.TypeFloat64, Distinct: 3, HasRange: true,
		Min: math.Inf(-1), Max: math.Inf(1),
		Hist: &Histogram{Kind: EquiDepth, Total: 4, Buckets: []Bucket{
			{Lo: math.Inf(-1), Hi: math.Inf(-1), Count: 1, Distinct: 1},
			{Lo: 0, Hi: math.Inf(1), Count: 3, Distinct: 2},
		}},
	}}})
	var buf bytes.Buffer
	if err := c.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// An infinite statistic travels as the string "-Inf" or "+Inf" and imports
// back, checksum verified; a finite one keeps encoding/json's bytes, so
// every file and checksum written before infinities were accepted stays
// valid.
func TestInfiniteStatisticsRoundTrip(t *testing.T) {
	raw := infiniteExport(t)
	if !bytes.Contains(raw, []byte(`"min": "-Inf"`)) || !bytes.Contains(raw, []byte(`"max": "+Inf"`)) {
		t.Fatalf("export does not spell the infinite bounds as strings:\n%s", raw)
	}
	c := New()
	if err := c.ImportJSON(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	cs := c.Table("t").Column("x")
	if !math.IsInf(cs.Min, -1) || !math.IsInf(cs.Max, 1) || !math.IsInf(cs.Hist.Buckets[0].Lo, -1) || !math.IsInf(cs.Hist.Buckets[1].Hi, 1) {
		t.Fatalf("imported bounds %g..%g, buckets %+v", cs.Min, cs.Max, cs.Hist.Buckets)
	}
	// Finite statistics keep encoding/json's bytes and read back bit for bit.
	plain := struct {
		Lo       float64 `json:"lo"`
		Hi       float64 `json:"hi"`
		Count    float64 `json:"count"`
		Distinct float64 `json:"distinct"`
	}{-1.5e-7, 2.5e21, 312.5, 3}
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(jsonBucket{jsonFloat(plain.Lo), jsonFloat(plain.Hi), jsonFloat(plain.Count), jsonFloat(plain.Distinct)})
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("bucket encodes as %s (%v), encoding/json writes %s", got, err, want)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 0.1, 1e-7, 1e21, -3e-300, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		b, err := jsonFloat(v).MarshalJSON()
		var back jsonFloat
		if err == nil {
			err = back.UnmarshalJSON(b)
		}
		if err != nil || math.Float64bits(float64(back)) != math.Float64bits(v) {
			t.Errorf("%g reads back as %g (%s, %v)", v, float64(back), b, err)
		}
	}
	for _, bad := range []string{`"inf"`, `"NaN"`, `true`, `1e400`, `"1"`} {
		var back jsonFloat
		if err := back.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("%s decoded as %g", bad, float64(back))
		}
	}
}

// TestImportJSONCorruptionMatrix drives the reader through one corruption
// of every class the durable layer can hand it — truncated sections,
// flipped checksum bytes, legacy v1 blobs, structural damage — and pins
// that each maps to ErrBadStats with a useful diagnostic, never a panic
// and never a partial import on the target catalog's state (ImportJSON is
// applied to a scratch catalog by the COW mutation path, so the contract
// here is classification, not atomicity).
func TestImportJSONCorruptionMatrix(t *testing.T) {
	seed := fuzzSeedExport(t)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr bool
		wantIn  string // substring of the diagnostic, "" = don't care
	}{
		{"pristine", func(b []byte) []byte { return b }, false, ""},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }, true, "line"},
		{"truncated-one-byte", func(b []byte) []byte { return b[:len(b)-2] }, true, "line"},
		{"flipped-checksum-digit", func(b []byte) []byte {
			i := bytes.Index(b, []byte(`"checksum": "`))
			if i < 0 {
				t.Fatal("no checksum in export")
			}
			out := append([]byte(nil), b...)
			pos := i + len(`"checksum": "`)
			if out[pos] == 'f' {
				out[pos] = '0'
			} else {
				out[pos] = 'f'
			}
			return out
		}, true, "checksum mismatch"},
		{"flipped-content-byte", func(b []byte) []byte {
			// Change a statistic without fixing the section checksum.
			return bytes.Replace(b, []byte(`"card": 1000`), []byte(`"card": 1001`), 1)
		}, true, "checksum mismatch"},
		{"missing-checksum", func(b []byte) []byte { return nil }, true, "missing checksum"},
		{"future-format", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"format_version": 2`), []byte(`"format_version": 99`), 1)
		}, true, "newer than the supported version"},
		{"unknown-column-type", func(b []byte) []byte {
			return nil // built below
		}, true, "unknown type"},
		{"nameless-table", func(b []byte) []byte { return nil }, true, "must have a name"},
		{"negative-card", func(b []byte) []byte { return nil }, true, "cardinality"},
	}
	literals := map[string]string{
		"missing-checksum":    `{"format_version":2,"tables":[{"name":"t","card":1}]}`,
		"unknown-column-type": `{"tables":[{"name":"t","card":1,"columns":[{"name":"x","type":"decimal","distinct":1}]}]}`,
		"nameless-table":      `{"tables":[{"card":1}]}`,
		"negative-card":       `{"tables":[{"name":"t","card":-5}]}`,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(seed)
			if lit, ok := literals[tc.name]; ok {
				data = []byte(lit)
			}
			c := New()
			err := c.ImportJSON(bytes.NewReader(data))
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("pristine import failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("corrupted stats imported without error")
			}
			if !errors.Is(err, governor.ErrBadStats) {
				t.Fatalf("error does not wrap ErrBadStats: %v", err)
			}
			if tc.wantIn != "" && !strings.Contains(err.Error(), tc.wantIn) {
				t.Fatalf("diagnostic %q missing %q", err, tc.wantIn)
			}
		})
	}
}

// TestImportVersionedJSONHeader pins the checkpoint header round trip: the
// catalog_version a durable checkpoint stamps comes back from import, and
// plain exports read as version 0.
func TestImportVersionedJSONHeader(t *testing.T) {
	c := New()
	c.MustAddTable(SimpleTable("r", 10, map[string]float64{"a": 2}))
	var buf bytes.Buffer
	if err := c.ExportVersionedJSON(&buf, 42); err != nil {
		t.Fatal(err)
	}
	in := New()
	v, err := in.ImportVersionedJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("catalog_version %d, want 42", v)
	}
	var plain bytes.Buffer
	if err := c.ExportJSON(&plain); err != nil {
		t.Fatal(err)
	}
	v, err = New().ImportVersionedJSON(bytes.NewReader(plain.Bytes()))
	if err != nil || v != 0 {
		t.Fatalf("plain export: version %d err %v, want 0 nil", v, err)
	}
}

// TestTouchedInRegistrationOrder pins the WAL delta's table list: the
// tables a clone's writes reached, equal writes included, in registration
// order whatever the order of the writes; a fresh clone lists none.
func TestTouchedInRegistrationOrder(t *testing.T) {
	prev := New()
	prev.MustAddTable(SimpleTable("a", 10, map[string]float64{"x": 2}))
	prev.MustAddTable(SimpleTable("B", 20, map[string]float64{"y": 4}))
	prev.MustAddTable(SimpleTable("d", 30, map[string]float64{"w": 3}))
	next := prev.Clone()
	if d := next.Touched(); len(d) != 0 {
		t.Fatalf("clone touched %v, want none", d)
	}
	next.MustAddTable(SimpleTable("c", 5, map[string]float64{"z": 5}))  // added
	next.MustAddTable(SimpleTable("b", 21, map[string]float64{"y": 4})) // changed
	next.MustAddTable(SimpleTable("a", 10, map[string]float64{"x": 2})) // equal
	if got := next.Touched(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("touched %v, want [a b c]", got)
	}
}
