// Command elsgen generates synthetic integer datasets as CSV on stdout,
// using the same seeded generators the experiments use. It exists so the
// workloads are inspectable and reusable outside the Go test harness.
//
// Usage:
//
//	elsgen -rows 10000 -cols "k:uniform:100,v:zipf:1000:0.9" [-seed 42] [-header]
//
// Each column spec is name:distribution:domain[:theta] with distribution
// one of uniform, zipf, permutation, sequential (permutation ignores the
// domain and uses the row count).
//
// -data-dir records the generated table's exact statistics (cardinality
// and per-column distinct counts, computed from the data) in a durable
// catalog directory via the WAL, checkpointed on exit, so downstream tools
// (elsrepl -data-dir, elsexplain -data-dir) can estimate over the dataset
// without re-scanning the CSV.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	els "repro"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/workpool"
)

func main() {
	rows := flag.Int("rows", 1000, "number of rows")
	cols := flag.String("cols", "k:uniform:100", "column specs name:dist:domain[:theta], comma separated")
	seed := flag.Int64("seed", 42, "generator seed")
	header := flag.Bool("header", false, "emit a CSV header row")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for generation (0 = none)")
	name := flag.String("name", "gen", "table name for the durable catalog entry (-data-dir)")
	dataDir := flag.String("data-dir", "", "durable catalog directory: record the generated table's exact statistics, checkpointed on exit")
	flag.Parse()

	err := workpool.WithTimeout(*timeout, func() error {
		return run(*rows, *cols, *seed, *header, *name, *dataDir, os.Stdout)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsgen:", err)
		os.Exit(1)
	}
}

func run(rows int, cols string, seed int64, header bool, name, dataDir string, w io.Writer) error {
	spec := datagen.TableSpec{Name: name, Rows: rows}
	var names []string
	for _, c := range strings.Split(cols, ",") {
		cs, err := parseColumnSpec(strings.TrimSpace(c))
		if err != nil {
			return err
		}
		spec.Columns = append(spec.Columns, cs)
		names = append(names, cs.Name)
	}
	tbl, err := datagen.Generate(spec, seed)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(w)
	if header {
		out.WriteString(strings.Join(names, ","))
		out.WriteByte('\n')
	}
	// The writer's error is sticky: Flush reports the first failed write.
	var num []byte
	for r := 0; r < tbl.NumRows(); r++ {
		for c := range names {
			if c > 0 {
				out.WriteByte(',')
			}
			num = strconv.AppendInt(num[:0], tbl.Value(r, c).Int(), 10)
			out.Write(num)
		}
		out.WriteByte('\n')
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if dataDir != "" {
		if err := persistStats(dataDir, name, names, tbl); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "elsgen: recorded statistics for %q in %s\n", name, dataDir)
	}
	return nil
}

// persistStats records the generated table's exact statistics — row count
// and per-column distinct counts computed from the data — in the durable
// catalog at dir. The declaration goes through the WAL (acknowledged only
// after fsync) and is compacted into a checkpoint before the tool exits.
func persistStats(dir, name string, colNames []string, tbl *storage.Table) error {
	distinct := make(map[string]float64, len(colNames))
	seen := make(map[int64]struct{})
	for c, cn := range colNames {
		clear(seen)
		for r := 0; r < tbl.NumRows(); r++ {
			seen[tbl.Value(r, c).Int()] = struct{}{}
		}
		distinct[cn] = float64(len(seen))
	}
	sys, err := els.Open(dir)
	if err != nil {
		return err
	}
	if err := sys.DeclareStats(name, float64(tbl.NumRows()), distinct); err != nil {
		return err
	}
	if err := sys.Checkpoint(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return sys.Close(ctx)
}

func parseColumnSpec(s string) (datagen.ColumnSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return datagen.ColumnSpec{}, fmt.Errorf("bad column spec %q (want name:dist:domain[:theta])", s)
	}
	cs := datagen.ColumnSpec{Name: parts[0]}
	switch strings.ToLower(parts[1]) {
	case "uniform":
		cs.Dist = datagen.DistUniform
	case "zipf":
		cs.Dist = datagen.DistZipf
	case "permutation":
		cs.Dist = datagen.DistPermutation
	case "sequential":
		cs.Dist = datagen.DistSequential
	default:
		return datagen.ColumnSpec{}, fmt.Errorf("unknown distribution %q in %q", parts[1], s)
	}
	if len(parts) >= 3 && cs.Dist != datagen.DistPermutation {
		d, err := strconv.Atoi(parts[2])
		if err != nil {
			return datagen.ColumnSpec{}, fmt.Errorf("bad domain in %q: %v", s, err)
		}
		cs.Domain = d
	}
	if len(parts) >= 4 {
		t, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return datagen.ColumnSpec{}, fmt.Errorf("bad theta in %q: %v", s, err)
		}
		cs.Theta = t
	}
	return cs, nil
}
