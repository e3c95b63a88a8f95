package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strconv"

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
	Card     jsonFloat    `json:"card"`
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
	Distinct  jsonFloat      `json:"distinct"`
	NullCount jsonFloat      `json:"null_count,omitempty"`
	HasRange  bool           `json:"has_range,omitempty"`
	Min       jsonFloat      `json:"min,omitempty"`
	Max       jsonFloat      `json:"max,omitempty"`
	Histogram *jsonHistogram `json:"histogram,omitempty"`
}

type jsonHistogram struct {
	Kind    string       `json:"kind"`
	Total   jsonFloat    `json:"total"`
	Buckets []jsonBucket `json:"buckets"`
}

type jsonBucket struct {
	Lo       jsonFloat `json:"lo"`
	Hi       jsonFloat `json:"hi"`
	Count    jsonFloat `json:"count"`
	Distinct jsonFloat `json:"distinct"`
}

// jsonFloat is a statistic as the stats file writes it: a finite value as
// encoding/json writes a float64, and an infinite one (an Analyzed column
// holding -Inf or +Inf has infinite bounds) as the string "-Inf" or "+Inf",
// which JSON numbers cannot hold. A NaN fails to encode; no registered
// statistic holds one.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	switch v := float64(f); {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	default:
		return json.Marshal(v)
	}
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		return nil
	case `"+Inf"`:
		*f = jsonFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jsonFloat(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("statistic %s is not a number, \"+Inf\" or \"-Inf\"", b)
	}
	*f = jsonFloat(v)
	return nil
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
func tableChecksum(jt jsonTable) (string, error) {
	jt.Checksum = ""
	b, err := json.Marshal(jt)
	if err != nil {
		return "", fmt.Errorf("%w: table %q: %w", governor.ErrBadStats, jt.Name, err)
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(b)), nil
}

// encodeTable builds the canonical jsonTable section for one table's
// statistics, checksum filled in.
func encodeTable(ts *TableStats) (jsonTable, error) {
	jt := jsonTable{Name: ts.Name, Card: jsonFloat(ts.Card), RowWidth: ts.RowWidth}
	// Deterministic column order.
	var keys []string
	for k := range ts.Columns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cs := ts.Columns[k]
		jc := jsonColumn{
			Name: cs.Name, Type: typeNames[cs.Type], Distinct: jsonFloat(cs.Distinct),
			NullCount: jsonFloat(cs.NullCount), HasRange: cs.HasRange,
			Min: jsonFloat(cs.Min), Max: jsonFloat(cs.Max),
		}
		if cs.Hist != nil {
			jh := &jsonHistogram{Kind: cs.Hist.Kind.String(), Total: jsonFloat(cs.Hist.Total)}
			for _, b := range cs.Hist.Buckets {
				jh.Buckets = append(jh.Buckets, jsonBucket{
					Lo: jsonFloat(b.Lo), Hi: jsonFloat(b.Hi),
					Count: jsonFloat(b.Count), Distinct: jsonFloat(b.Distinct),
				})
			}
			jc.Histogram = jh
		}
		jt.Columns = append(jt.Columns, jc)
	}
	var err error
	jt.Checksum, err = tableChecksum(jt)
	return jt, err
}

// exportJSON writes the v2 stats document for the named tables, stamping
// catalogVersion when non-zero.
func (c *Catalog) exportJSON(w io.Writer, names []string, catalogVersion uint64) error {
	out := jsonCatalog{FormatVersion: StatsFormatVersion, CatalogVersion: catalogVersion}
	for _, name := range names {
		ts := c.Table(name)
		if ts == nil {
			return fmt.Errorf("%w: exporting unknown table %q", governor.ErrBadStats, name)
		}
		jt, err := encodeTable(ts)
		if err != nil {
			return err
		}
		out.Tables = append(out.Tables, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ExportJSON writes the catalog's statistics as JSON — the portable
// artifact for sharing optimizer statistics between runs or tools. The
// file carries a format_version header and a per-table checksum so
// ImportJSON can reject truncated or corrupted files.
func (c *Catalog) ExportJSON(w io.Writer) error { return c.exportJSON(w, c.TableNames(), 0) }

// ExportSubsetJSON is ExportJSON restricted to the named tables, in the
// given order (none for an empty list). The durable write-ahead log uses
// it to record just the tables a mutation wrote.
func (c *Catalog) ExportSubsetJSON(w io.Writer, names []string) error {
	return c.exportJSON(w, names, 0)
}

// ExportVersionedJSON is ExportJSON with the published catalog version
// stamped into the header — the checkpoint form written by
// internal/durable.
func (c *Catalog) ExportVersionedJSON(w io.Writer, version uint64) error {
	return c.exportJSON(w, c.TableNames(), version)
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
			got, err := tableChecksum(jt)
			if err != nil {
				return 0, err
			}
			if got != jt.Checksum {
				return 0, fmt.Errorf("%w: stats file: table %q (section %d): checksum mismatch (file says %s, content hashes to %s) — the section was corrupted or edited",
					governor.ErrBadStats, jt.Name, i, jt.Checksum, got)
			}
		}
	}
	for _, jt := range in.Tables {
		ts := &TableStats{
			Name: jt.Name, Card: float64(jt.Card), RowWidth: jt.RowWidth,
			Columns: make(map[string]*ColumnStats, len(jt.Columns)),
		}
		for _, jc := range jt.Columns {
			typ, ok := typeByName[jc.Type]
			if !ok {
				return 0, fmt.Errorf("%w: stats file: table %s column %s: unknown type %q",
					governor.ErrBadStats, jt.Name, jc.Name, jc.Type)
			}
			cs := &ColumnStats{
				Name: jc.Name, Type: typ, Distinct: float64(jc.Distinct),
				NullCount: float64(jc.NullCount), HasRange: jc.HasRange,
				Min: float64(jc.Min), Max: float64(jc.Max),
			}
			if jc.Histogram != nil {
				kind := EquiWidth
				if jc.Histogram.Kind == EquiDepth.String() {
					kind = EquiDepth
				}
				h := &Histogram{Kind: kind, Total: float64(jc.Histogram.Total)}
				for _, b := range jc.Histogram.Buckets {
					h.Buckets = append(h.Buckets, Bucket{
						Lo: float64(b.Lo), Hi: float64(b.Hi),
						Count: float64(b.Count), Distinct: float64(b.Distinct),
					})
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
