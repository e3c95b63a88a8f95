package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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
	if len(l.violations) != 0 {
		t.Fatalf("taxonomy errors recorded as violations: %v", l.violations)
	}
	for _, row := range governor.Taxonomy() {
		if l.errsByClass[row.Code] != 1 {
			t.Errorf("class %q counted %d times, want 1", row.Code, l.errsByClass[row.Code])
		}
	}
	if want := len(governor.Taxonomy()) + 1; l.ops != want || l.succeeded != 1 {
		t.Errorf("ops %d succeeded %d, want %d and 1", l.ops, l.succeeded, want)
	}

	l.record("w", "op", errors.New("raw"))
	if len(l.violations) != 1 || !strings.Contains(l.violations[0], "outside the taxonomy") {
		t.Errorf("stray error not a violation: %v", l.violations)
	}
	if l.errsByClass["UNCLASSIFIED"] != 1 {
		t.Errorf("stray error not counted as UNCLASSIFIED: %v", l.errsByClass)
	}
	if lines := strings.Count(log.String(), "\n"); lines != l.ops+1 {
		t.Errorf("event log has %d lines, want one per op and one for the violation", lines)
	}
}
