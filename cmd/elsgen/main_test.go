package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	els "repro"
	"repro/internal/datagen"
)

func TestParseColumnSpec(t *testing.T) {
	cs, err := parseColumnSpec("k:uniform:100")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Name != "k" || cs.Dist != datagen.DistUniform || cs.Domain != 100 {
		t.Errorf("spec = %+v", cs)
	}
	cs, err = parseColumnSpec("z:zipf:1000:0.9")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Dist != datagen.DistZipf || cs.Theta != 0.9 {
		t.Errorf("zipf spec = %+v", cs)
	}
	cs, err = parseColumnSpec("p:permutation")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Dist != datagen.DistPermutation || cs.Domain != 0 {
		t.Errorf("perm spec = %+v", cs)
	}
	// Permutation ignores the domain field.
	cs, err = parseColumnSpec("p:permutation:999")
	if err != nil || cs.Domain != 0 {
		t.Errorf("perm with domain = %+v err %v", cs, err)
	}
	if _, err := parseColumnSpec("s:sequential:5"); err != nil {
		t.Errorf("sequential: %v", err)
	}
}

func TestParseColumnSpecErrors(t *testing.T) {
	for _, spec := range []string{"", "nameonly", "k:bogus:5", "k:uniform:xx", "k:zipf:10:bad"} {
		if _, err := parseColumnSpec(spec); err == nil {
			t.Errorf("%q should fail", spec)
		}
	}
}

func TestRunGeneratesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(5, "k:uniform:10,z:zipf:5:1.0", 42, true, "gen", "", &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want header + 5 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "k,z" {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != 1 {
			t.Errorf("bad row %q", line)
		}
	}
	// Deterministic for a seed.
	var buf2 bytes.Buffer
	if err := run(5, "k:uniform:10,z:zipf:5:1.0", 42, true, "gen", "", &buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("same seed should reproduce identical CSV")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(5, "bad", 1, false, "gen", "", &buf); err == nil {
		t.Error("bad column spec should error")
	}
	if err := run(-1, "k:uniform:10", 1, false, "gen", "", &buf); err == nil {
		t.Error("negative rows should error")
	}
	if err := run(5, "k:uniform:10", 1, false, "gen", "", failingWriter{}); err == nil {
		t.Error("a failed write should error")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// -data-dir records the generated table's exact statistics in a durable
// catalog: cardinality is the row count and per-column distincts are
// computed from the data, so a sequential column has distinct == rows.
func TestDataDirRecordsExactStats(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(50, "k:uniform:10,s:sequential:50", 42, false, "mytab", dir, &buf); err != nil {
		t.Fatal(err)
	}
	sys, err := els.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sys.Close(ctx)
	}()
	card, err := sys.TableCard("mytab")
	if err != nil || card != 50 {
		t.Fatalf("card = %g, %v; want 50", card, err)
	}
	d, err := sys.ColumnDistinct("mytab", "s")
	if err != nil || d != 50 {
		t.Errorf("sequential distinct = %g, %v; want 50", d, err)
	}
	d, err = sys.ColumnDistinct("mytab", "k")
	if err != nil || d < 1 || d > 10 {
		t.Errorf("uniform distinct = %g, %v; want 1..10", d, err)
	}
}
