package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/governor"
)

// FuzzOpenCheckpoint pins recovery's contract on whatever sits in
// checkpoint.json: Open succeeds or fails with an error wrapping
// ErrDurability, and never panics. A store it opens closes cleanly, and
// the catalog it recovered exports to JSON that re-imports to the same
// export at the same version.
func FuzzOpenCheckpoint(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	cat := s.Catalog()
	for v, name := range []string{"r", "s"} {
		next := cat.Clone()
		next.MustAddTable(catalog.SimpleTable(name, float64(100*(v+1)), map[string]float64{"a": 2, "b": 7}))
		if err := s.LogMutation(uint64(v+2), cat, next); err != nil {
			f.Fatal(err)
		}
		cat = next
	}
	if err := s.Checkpoint(cat, 3); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		f.Fatal(err)
	}
	var unversioned bytes.Buffer
	if err := cat.ExportJSON(&unversioned); err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	f.Add(ckpt[:len(ckpt)/2])
	f.Add(unversioned.Bytes())
	f.Add([]byte("\x00\xffnot a checkpoint"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointName), data, 0o644); err != nil { //atomicwrite:allow test plants the checkpoint under test
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			if !errors.Is(err, governor.ErrDurability) {
				t.Fatalf("Open failed outside ErrDurability: %v", err)
			}
			return
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close after a successful Open: %v", err)
		}
		var first, second bytes.Buffer
		if err := s.Catalog().ExportVersionedJSON(&first, s.Version()); err != nil {
			t.Fatalf("exporting the recovered catalog: %v", err)
		}
		again := catalog.New()
		v, err := again.ImportVersionedJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-importing the recovered catalog's export: %v", err)
		}
		if v != s.Version() {
			t.Fatalf("re-import read version %d, recovered %d", v, s.Version())
		}
		if err := again.ExportVersionedJSON(&second, v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export does not survive a re-import:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}
