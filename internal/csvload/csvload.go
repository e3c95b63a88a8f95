// Package csvload imports CSV data into storage tables, with header
// handling and per-column type inference (int64 → float64 → string). It is
// the bridge between externally generated datasets and the catalog's
// ANALYZE path.
//
// A field reading NULL (in any case) is a NULL value, as is an empty
// numeric field. Malformed input — ragged records, truncated quotes,
// unparsable fields, NaN — is reported with the source file name (when
// Options.Filename is set) and the 1-based input line, so a bad row in a
// large dataset is findable.
package csvload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/storage"
)

// PointLoad is the fault-injection probe fired on entry to Load, letting
// tests simulate unreadable or corrupt data files.
const PointLoad = "csvload.load"

// Options configures CSV import.
type Options struct {
	// Header consumes the first record as column names. Without it columns
	// are named c0, c1, ....
	Header bool
	// Filename, when non-empty, names the input source in error messages
	// ("data.csv:5: ..."). Purely diagnostic; the data still comes from the
	// reader passed to Load.
	Filename string
}

// where formats an input position for error messages.
func (o Options) where(line int) string {
	if o.Filename != "" {
		return fmt.Sprintf("%s:%d", o.Filename, line)
	}
	return fmt.Sprintf("line %d", line)
}

// record is one CSV record with the 1-based input line it started on.
type record struct {
	fields []string
	line   int
}

// Load reads CSV from r into a new table with the given name. All records
// must have the same arity. Column types are inferred from the data: a
// column where every non-null value parses as an integer is TypeInt64, else
// if every value parses as a float it is TypeFloat64, else TypeString.
func Load(name string, r io.Reader, opts Options) (*storage.Table, error) {
	if err := faultinject.Check(PointLoad); err != nil {
		return nil, fmt.Errorf("csvload: %s: %w", orInput(opts.Filename), err)
	}
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	// Arity is checked below with our own positioned error, not the csv
	// package's.
	cr.FieldsPerRecord = -1

	var records []record
	for {
		fields, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				return nil, fmt.Errorf("csvload: %s: %w", opts.where(pe.Line), pe.Err)
			}
			return nil, fmt.Errorf("csvload: %s: %w", orInput(opts.Filename), err)
		}
		line, _ := cr.FieldPos(0)
		records = append(records, record{fields: fields, line: line})
	}

	var names []string
	if opts.Header {
		if len(records) == 0 {
			return nil, fmt.Errorf("csvload: %s: empty input, expected a header", orInput(opts.Filename))
		}
		names = records[0].fields
		records = records[1:]
	}
	if len(records) == 0 && len(names) == 0 {
		return nil, fmt.Errorf("csvload: %s: empty input", orInput(opts.Filename))
	}
	width := len(names)
	if width == 0 {
		width = len(records[0].fields)
		names = make([]string, width)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i)
		}
	}
	for _, rec := range records {
		if len(rec.fields) != width {
			return nil, fmt.Errorf("csvload: %s: record has %d fields, want %d",
				opts.where(rec.line), len(rec.fields), width)
		}
	}

	// Infer types per column.
	types := make([]storage.Type, width)
	for c := 0; c < width; c++ {
		types[c] = inferColumnType(records, c)
	}
	defs := make([]storage.ColumnDef, width)
	for i := range defs {
		defs[i] = storage.ColumnDef{Name: names[i], Type: types[i]}
	}
	schema, err := storage.NewSchema(defs...)
	if err != nil {
		return nil, fmt.Errorf("csvload: %s: %w", orInput(opts.Filename), err)
	}
	tbl := storage.NewTable(name, schema)
	row := make([]storage.Value, width)
	for _, rec := range records {
		for c, field := range rec.fields {
			v, err := parseValue(field, types[c])
			if err != nil {
				return nil, fmt.Errorf("csvload: %s: column %s: %w",
					opts.where(rec.line), names[c], err)
			}
			row[c] = v
		}
		if err := tbl.AppendRow(row...); err != nil {
			return nil, fmt.Errorf("csvload: %s: %w", opts.where(rec.line), err)
		}
	}
	return tbl, nil
}

// orInput substitutes a generic source name when no filename is known.
func orInput(filename string) string {
	if filename == "" {
		return "input"
	}
	return filename
}

// isNull reports whether a trimmed field is the NULL token.
func isNull(s string) bool { return strings.EqualFold(s, "NULL") }

func inferColumnType(records []record, col int) storage.Type {
	sawValue := false
	allInt, allFloat := true, true
	for _, rec := range records {
		s := strings.TrimSpace(rec.fields[col])
		if s == "" || isNull(s) {
			continue
		}
		sawValue = true
		if allInt {
			if _, err := strconv.ParseInt(s, 10, 64); err != nil {
				allInt = false
			}
		}
		if !allInt && allFloat {
			if _, err := strconv.ParseFloat(s, 64); err != nil {
				allFloat = false
			}
		}
		if !allInt && !allFloat {
			return storage.TypeString
		}
	}
	switch {
	case !sawValue:
		// All-null or empty column: default to string.
		return storage.TypeString
	case allInt:
		return storage.TypeInt64
	case allFloat:
		return storage.TypeFloat64
	default:
		return storage.TypeString
	}
}

func parseValue(field string, t storage.Type) (storage.Value, error) {
	s := strings.TrimSpace(field)
	if isNull(s) || (s == "" && t != storage.TypeString) {
		return storage.Null(t), nil
	}
	switch t {
	case storage.TypeInt64:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("cannot parse %q as integer", s)
		}
		return storage.Int64(n), nil
	case storage.TypeFloat64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("cannot parse %q as float", s)
		}
		if math.IsNaN(f) {
			// NaN orders against nothing, so no statistic can summarize it.
			return storage.Value{}, fmt.Errorf("%q is not a number", s)
		}
		return storage.Float64(f), nil
	default:
		return storage.String64(field), nil
	}
}
