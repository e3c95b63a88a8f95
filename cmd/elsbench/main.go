// Command elsbench runs the paper's experiments end-to-end and prints the
// reproduced tables.
//
// Usage:
//
//	elsbench [-experiment all|examples,section8,chain,zipf,urn,random]
//	         [-scale N] [-seed N] [-estimates-only] [-timeout D]
//
// The default runs everything. -scale divides the Section 8 table sizes
// (scale 1 is the paper's full size; 10 is a fast smoke test). The output
// is deterministic in -scale and -seed: no wall-clock value is printed, and
// EXPERIMENTS.md is the output of the defaults, held to it by this
// package's tests.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/workpool"
)

func main() {
	var (
		which     = flag.String("experiment", "all", "experiments to run (comma-separated): all, examples, section8, chain, zipf, urn, random")
		scale     = flag.Int("scale", 1, "divide the Section 8 table sizes by this factor")
		seed      = flag.Int64("seed", 42, "random seed for data generation")
		estimates = flag.Bool("estimates-only", false, "skip data generation and execution (Section 8)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	)
	flag.Parse()
	err := workpool.WithTimeout(*timeout, func() error {
		return run(os.Stdout, *which, *scale, *seed, *estimates)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, which string, scale int, seed int64, estimatesOnly bool) error {
	// Each step returns its tables; run prints each followed by a blank
	// line, and EXPERIMENTS.md holds every blank-line-separated chunk in a
	// text block of its own.
	steps := []struct {
		name string
		fn   func() (string, error)
	}{
		{"examples", func() (string, error) {
			examples, err := experiment.RunWorkedExamples()
			if err != nil {
				return "", err
			}
			return experiment.FormatWorkedExamples(examples), nil
		}},
		{"section8", func() (string, error) {
			res, err := experiment.RunSection8(experiment.Section8Options{
				Scale: scale, Seed: seed, SkipExecution: estimatesOnly,
			})
			if err != nil {
				return "", err
			}
			var b strings.Builder
			b.WriteString(experiment.FormatSection8(res))
			for _, row := range res.Rows {
				fmt.Fprintf(&b, "\n--- %s / %s plan:\n%s", row.Query, row.Algorithm, row.Plan)
			}
			return b.String(), nil
		}},
		{"chain", func() (string, error) {
			rows, err := experiment.RunChainLengthSweep(8, 30, seed)
			if err != nil {
				return "", err
			}
			return experiment.FormatChainLengthSweep(rows), nil
		}},
		{"zipf", func() (string, error) {
			rows, err := experiment.RunZipfSweep(2000, 5000, 500, []float64{0, 0.25, 0.5, 0.75, 1.0}, seed)
			if err != nil {
				return "", err
			}
			return experiment.FormatZipfSweep(rows), nil
		}},
		{"urn", func() (string, error) {
			rows, err := experiment.RunUrnVsLinear(100000, 10000,
				[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}, seed)
			if err != nil {
				return "", err
			}
			return experiment.FormatUrnVsLinear(rows), nil
		}},
		{"random", func() (string, error) {
			rows, err := experiment.RunRandomQueries(30, seed)
			if err != nil {
				return "", err
			}
			return experiment.FormatRandomQueries(rows), nil
		}},
	}
	all := false
	want := make(map[string]bool)
	for _, name := range strings.Split(which, ",") {
		if name = strings.TrimSpace(name); name == "all" {
			all = true
		} else if name != "" {
			want[name] = true
		}
	}
	if !all && len(want) == 0 {
		return fmt.Errorf("unknown experiment %q", which)
	}
	selected := steps[:0]
	for _, step := range steps {
		if all || want[step.name] {
			selected = append(selected, step)
			delete(want, step.name)
		}
	}
	for name := range want {
		return fmt.Errorf("unknown experiment %q", name)
	}
	for _, step := range selected {
		out, err := step.fn()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, out); err != nil {
			return err
		}
	}
	return nil
}
