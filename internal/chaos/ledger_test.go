package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/governor"
)

// The ledger files every row of the taxonomy table under the row's code —
// an injected ErrMemory is a class, not a violation — and only an error
// outside the table breaches the contract.
func TestLedgerClassifiesEveryTaxonomyRow(t *testing.T) {
	var log bytes.Buffer
	l := &ledger{logW: &log}
	l.record("w", "op", nil)
	for _, row := range governor.Taxonomy() {
		l.record("w", "op", fmt.Errorf("storm: %w", row.Err))
	}
	rep := l.report()
	if len(rep.Violations) != 0 {
		t.Fatalf("taxonomy errors recorded as violations: %v", rep.Violations)
	}
	for _, row := range governor.Taxonomy() {
		if rep.ErrorsByClass[row.Code] != 1 {
			t.Errorf("class %q counted %d times, want 1", row.Code, rep.ErrorsByClass[row.Code])
		}
	}
	if want := len(governor.Taxonomy()) + 1; rep.Ops != want || rep.Succeeded != 1 {
		t.Errorf("ops %d succeeded %d, want %d and 1", rep.Ops, rep.Succeeded, want)
	}

	l.record("w", "op", errors.New("raw"))
	rep = l.report()
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "outside the taxonomy") {
		t.Errorf("stray error not a violation: %v", rep.Violations)
	}
	if rep.ErrorsByClass["UNCLASSIFIED"] != 1 {
		t.Errorf("stray error not counted as UNCLASSIFIED: %v", rep.ErrorsByClass)
	}
	if lines := strings.Count(log.String(), "\n"); lines != rep.Ops+1 {
		t.Errorf("event log has %d lines, want one per op and one for the violation", lines)
	}
}

// count is exact under concurrent use, every violationf call is both a
// violation and an event, and a panic inside the fleet launcher is exactly
// one violation — whether a worker or a background goroutine panics, the
// fleet still waits for every other goroutine and closes stop.
func TestLedgerCountsViolationsAndFleetPanics(t *testing.T) {
	var log bytes.Buffer
	l := &ledger{logW: &log}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.count("calls", 1)
				l.count("odd", i%2)
			}
		}()
	}
	wg.Wait()
	if got := l.counted("calls"); got != 8000 {
		t.Errorf("count calls = %d, want 8000", got)
	}
	if got := l.counted("odd"); got != 4000 {
		t.Errorf("count odd = %d, want 4000", got)
	}

	for i := 0; i < 3; i++ {
		l.violationf("breach %d of %s", i, "x")
	}
	rep := l.report()
	if len(rep.Violations) != 3 || rep.Violations[2] != "breach 2 of x" {
		t.Errorf("violations %q, want three formatted breaches", rep.Violations)
	}
	if events := strings.Count(log.String(), `"event":"violation"`); events != 3 {
		t.Errorf("%d violation events logged, want 3", events)
	}

	for _, workerPanics := range []bool{true, false} {
		l := &ledger{}
		ran := 0
		var mu sync.Mutex
		l.fleet(4, func(i int) {
			if workerPanics && i == 2 {
				panic("worker boom")
			}
			mu.Lock()
			ran++
			mu.Unlock()
		}, func(stop <-chan struct{}) {
			if !workerPanics {
				panic("background boom")
			}
			<-stop
		}, func(stop <-chan struct{}) { <-stop })
		want := 4
		if workerPanics {
			want = 3
		}
		rep := l.report()
		if ran != want || len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "boom") {
			t.Errorf("worker panics %v: %d workers ran (want %d), violations %q, want exactly one",
				workerPanics, ran, want, rep.Violations)
		}
	}
}
