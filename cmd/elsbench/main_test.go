package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// EXPERIMENTS.md is the output of `elsbench` with its default flags. Every
// ```text block of the document, in order, is one blank-line-separated
// chunk of what run prints, byte for byte, and together the blocks are the
// whole output. Any change that moves a printed number turns this red until
// the document is regenerated and its prose re-read.
func TestExperimentsDocumentMatchesOutput(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var blocks []string
	var lines []string
	open := false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case !open && line == "```text":
			open, lines = true, nil
		case open && line == "```":
			open = false
			blocks = append(blocks, strings.Join(lines, "\n"))
		case open:
			lines = append(lines, line)
		}
	}
	if open {
		t.Fatal("EXPERIMENTS.md: unterminated ```text block")
	}
	var out bytes.Buffer
	if err := run(&out, "all", 1, 42, false); err != nil {
		t.Fatal(err)
	}
	chunks := strings.Split(strings.TrimSuffix(out.String(), "\n\n"), "\n\n")
	for i := 0; i < len(chunks) || i < len(blocks); i++ {
		var got, want string
		if i < len(chunks) {
			got = chunks[i]
		}
		if i < len(blocks) {
			want = blocks[i]
		}
		if got != want {
			t.Fatalf("EXPERIMENTS.md text block %d differs from `go run ./cmd/elsbench` (%d blocks, %d output chunks)\n--- output:\n%s\n--- document:\n%s",
				i+1, len(blocks), len(chunks), got, want)
		}
	}
}

func TestRunSection8Experiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "section8", 100, 42, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Section 8 experiment", "ELS", "SSS", "plan:"} {
		if !strings.Contains(out, want) {
			t.Errorf("section8 output missing %q", want)
		}
	}
}

func TestRunEstimatesOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "section8", 1, 42, true); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "4e-21") {
		t.Errorf("estimates-only output missing the paper value 4e-21:\n%s", out)
	}
}

func TestRunExamples(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "examples", 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "MISMATCH") {
		t.Errorf("worked examples mismatched:\n%s", buf.String())
	}
}

func TestRunSmallAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "urn", 1, 3, false); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("urn produced no output")
	}
}

func TestRunLargeAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second ablations in -short mode")
	}
	for _, which := range []string{"chain", "zipf", "random"} {
		var buf bytes.Buffer
		if err := run(&buf, which, 10, 3, false); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", which)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	for _, which := range []string{"nope", "", "examples,nope", "repeated"} {
		buf.Reset()
		if err := run(&buf, which, 1, 1, false); err == nil {
			t.Errorf("-experiment %q should error", which)
		}
		if buf.Len() != 0 {
			t.Errorf("-experiment %q printed before failing:\n%s", which, buf.String())
		}
	}
}

// A comma-separated -experiment list runs each named step once, in the
// order of the full run.
func TestRunExperimentList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "urn,examples", 1, 42, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ex, urn := strings.Index(out, "Worked examples"), strings.Index(out, "A3:")
	if ex < 0 || urn < ex || strings.Count(out, "A3:") != 1 {
		t.Errorf("want the examples then A3, once each:\n%s", out)
	}
}
