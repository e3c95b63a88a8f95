package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/governor"
	"repro/internal/storage"
)

// StatsFormatVersion is the format version ExportJSON writes. Version 2
// added the format_version header and per-table checksums; version-less
// (legacy, "version 1") files still import, without integrity checking.
const StatsFormatVersion = 2

// jsonCatalog is the serialized form of a catalog's statistics (data tables
// are not serialized; statistics are what optimizers exchange).
type jsonCatalog struct {
	FormatVersion int `json:"format_version,omitempty"`
	// CatalogVersion is the published snapshot version the statistics were
	// captured at. Only durable checkpoints (internal/durable) write it;
	// plain stats exports omit it and import as version 0.
	CatalogVersion uint64      `json:"catalog_version,omitempty"`
	Tables         []jsonTable `json:"tables"`
}

type jsonTable struct {
	Name     string       `json:"name"`
	Card     float64      `json:"card"`
	RowWidth int          `json:"row_width"`
	Columns  []jsonColumn `json:"columns"`
	// Checksum is the IEEE CRC-32 (hex) of the table's canonical compact
	// JSON encoding with this field empty. It detects a corrupted or
	// hand-mangled section at import time.
	Checksum string `json:"checksum,omitempty"`
}

type jsonColumn struct {
	Name      string         `json:"name"`
	Type      string         `json:"type"`
	Distinct  float64        `json:"distinct"`
	NullCount float64        `json:"null_count,omitempty"`
	HasRange  bool           `json:"has_range,omitempty"`
	Min       float64        `json:"min,omitempty"`
	Max       float64        `json:"max,omitempty"`
	Histogram *jsonHistogram `json:"histogram,omitempty"`
}

type jsonHistogram struct {
	Kind    string       `json:"kind"`
	Total   float64      `json:"total"`
	Buckets []jsonBucket `json:"buckets"`
}

type jsonBucket struct {
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Count    float64 `json:"count"`
	Distinct float64 `json:"distinct"`
}

var typeNames = map[storage.Type]string{
	storage.TypeInt64:   "int64",
	storage.TypeFloat64: "float64",
	storage.TypeString:  "string",
	storage.TypeBool:    "bool",
}

var typeByName = map[string]storage.Type{
	"int64": storage.TypeInt64, "float64": storage.TypeFloat64,
	"string": storage.TypeString, "bool": storage.TypeBool,
}

// tableChecksum computes a table section's integrity checksum: the IEEE
// CRC-32 of its compact JSON encoding with the Checksum field cleared.
// The encoding is canonical (fixed field order, shortest float form), so
// the value is stable across export/import round trips and independent of
// the file's indentation.
func tableChecksum(jt jsonTable) string {
	jt.Checksum = ""
	b, err := json.Marshal(jt)
	if err != nil {
		// Marshaling a plain struct of floats/strings cannot fail.
		panic(fmt.Sprintf("catalog: marshal table section: %v", err))
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(b))
}

// encodeTable builds the canonical jsonTable section for one table's
// statistics, checksum filled in.
func encodeTable(ts *TableStats) jsonTable {
	jt := jsonTable{Name: ts.Name, Card: ts.Card, RowWidth: ts.RowWidth}
	// Deterministic column order.
	var keys []string
	for k := range ts.Columns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs := ts.Columns[k]
		jc := jsonColumn{
			Name: cs.Name, Type: typeNames[cs.Type], Distinct: cs.Distinct,
			NullCount: cs.NullCount, HasRange: cs.HasRange, Min: cs.Min, Max: cs.Max,
		}
		if cs.Hist != nil {
			jh := &jsonHistogram{Kind: cs.Hist.Kind.String(), Total: cs.Hist.Total}
			for _, b := range cs.Hist.Buckets {
				jh.Buckets = append(jh.Buckets, jsonBucket(b))
			}
			jc.Histogram = jh
		}
		jt.Columns = append(jt.Columns, jc)
	}
	jt.Checksum = tableChecksum(jt)
	return jt
}

// exportJSON writes the v2 stats document for the named tables (all tables
// when names is nil), stamping catalogVersion when non-zero.
func (c *Catalog) exportJSON(w io.Writer, names []string, catalogVersion uint64) error {
	out := jsonCatalog{FormatVersion: StatsFormatVersion, CatalogVersion: catalogVersion}
	if names == nil {
		names = c.TableNames()
	}
	for _, name := range names {
		ts := c.Table(name)
		if ts == nil {
			return fmt.Errorf("%w: exporting unknown table %q", governor.ErrBadStats, name)
		}
		out.Tables = append(out.Tables, encodeTable(ts))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ExportJSON writes the catalog's statistics as JSON — the portable
// artifact for sharing optimizer statistics between runs or tools. The
// file carries a format_version header and a per-table checksum so
// ImportJSON can reject truncated or corrupted files.
func (c *Catalog) ExportJSON(w io.Writer) error { return c.exportJSON(w, nil, 0) }

// ExportSubsetJSON is ExportJSON restricted to the named tables, in the
// given order. The durable write-ahead log uses it to record just the
// tables a mutation changed.
func (c *Catalog) ExportSubsetJSON(w io.Writer, names []string) error {
	return c.exportJSON(w, names, 0)
}

// ExportVersionedJSON is ExportJSON with the published catalog version
// stamped into the header — the checkpoint form written by
// internal/durable.
func (c *Catalog) ExportVersionedJSON(w io.Writer, version uint64) error {
	return c.exportJSON(w, nil, version)
}

// sectionBytes is the canonical compact encoding of a table's section,
// the byte string DiffTables compares (checksums alone would make a CRC
// collision silently drop a changed table from the WAL delta).
func sectionBytes(ts *TableStats) []byte {
	b, err := json.Marshal(encodeTable(ts))
	if err != nil {
		// Marshaling a plain struct of floats/strings cannot fail.
		panic(fmt.Sprintf("catalog: marshal table section: %v", err))
	}
	return b
}

// DiffTables returns the names of tables (in next's registration order)
// whose statistics differ from prev's — added tables and tables whose
// canonical section encoding changed. The durable layer logs exactly this
// delta per catalog mutation. Tables are never deleted, so a prev-only
// table cannot occur.
func DiffTables(prev, next *Catalog) []string {
	var changed []string
	for _, name := range next.TableNames() {
		pts, nts := prev.Table(name), next.Table(name)
		if pts == nil || !bytes.Equal(sectionBytes(pts), sectionBytes(nts)) {
			changed = append(changed, name)
		}
	}
	return changed
}

// decodeError maps a JSON decoding failure onto ErrBadStats with a
// line:column diagnostic computed from the decoder's byte offset, so a
// truncated or mangled stats file reports where it broke instead of
// silently importing a partial catalog.
func decodeError(data []byte, err error) error {
	var offset int64 = -1
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		offset = syn.Offset
	case errors.As(err, &typ):
		offset = typ.Offset
	}
	if offset < 0 || offset > int64(len(data)) {
		return fmt.Errorf("%w: stats file: %w", governor.ErrBadStats, err)
	}
	line, col := 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("%w: stats file line %d, column %d (byte %d): %w",
		governor.ErrBadStats, line, col, offset, err)
}

// ImportJSON loads statistics previously written by ExportJSON into the
// catalog (replacing same-named tables). Version-2 files (the current
// format) are integrity-checked: the format_version header must not be
// newer than this build understands, and every table section's checksum
// must match, so a truncated or corrupted file fails with ErrBadStats and
// a line diagnostic. Legacy files without a header import without
// checksum verification.
func (c *Catalog) ImportJSON(r io.Reader) error {
	_, err := c.ImportVersionedJSON(r)
	return err
}

// ImportVersionedJSON is ImportJSON that additionally returns the
// catalog_version header the file carries (0 for plain stats exports;
// non-zero for durable checkpoints).
func (c *Catalog) ImportVersionedJSON(r io.Reader) (uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("%w: reading stats file: %w", governor.ErrBadStats, err)
	}
	var in jsonCatalog
	if err := json.Unmarshal(data, &in); err != nil {
		return 0, decodeError(data, err)
	}
	if in.FormatVersion > StatsFormatVersion {
		return 0, fmt.Errorf("%w: stats file format version %d is newer than the supported version %d",
			governor.ErrBadStats, in.FormatVersion, StatsFormatVersion)
	}
	if in.FormatVersion >= 2 {
		for i, jt := range in.Tables {
			if jt.Checksum == "" {
				return 0, fmt.Errorf("%w: stats file: table %q (section %d): missing checksum",
					governor.ErrBadStats, jt.Name, i)
			}
			if got := tableChecksum(jt); got != jt.Checksum {
				return 0, fmt.Errorf("%w: stats file: table %q (section %d): checksum mismatch (file says %s, content hashes to %s) — the section was corrupted or edited",
					governor.ErrBadStats, jt.Name, i, jt.Checksum, got)
			}
		}
	}
	for _, jt := range in.Tables {
		ts := &TableStats{
			Name: jt.Name, Card: jt.Card, RowWidth: jt.RowWidth,
			Columns: make(map[string]*ColumnStats, len(jt.Columns)),
		}
		for _, jc := range jt.Columns {
			typ, ok := typeByName[jc.Type]
			if !ok {
				return 0, fmt.Errorf("%w: stats file: table %s column %s: unknown type %q",
					governor.ErrBadStats, jt.Name, jc.Name, jc.Type)
			}
			cs := &ColumnStats{
				Name: jc.Name, Type: typ, Distinct: jc.Distinct,
				NullCount: jc.NullCount, HasRange: jc.HasRange, Min: jc.Min, Max: jc.Max,
			}
			if jc.Histogram != nil {
				kind := EquiWidth
				if jc.Histogram.Kind == EquiDepth.String() {
					kind = EquiDepth
				}
				h := &Histogram{Kind: kind, Total: jc.Histogram.Total}
				for _, b := range jc.Histogram.Buckets {
					h.Buckets = append(h.Buckets, Bucket(b))
				}
				cs.Hist = h
			}
			ts.Columns[key(jc.Name)] = cs
		}
		if err := c.AddTable(ts); err != nil {
			if !errors.Is(err, governor.ErrBadStats) {
				err = fmt.Errorf("%w: stats file: table %q: %w", governor.ErrBadStats, jt.Name, err)
			}
			return 0, err
		}
	}
	return in.CatalogVersion, nil
}
