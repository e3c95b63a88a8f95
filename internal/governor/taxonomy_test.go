package governor

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"testing"
	"time"
)

// The taxonomy is wire protocol: the 13 codes, the sentinel each names,
// the classification priority (row order) and the retry set are pinned
// here, so a renamed code or a reordered row fails loudly instead of
// waiting for a cross-version client to notice.
func TestTaxonomyGolden(t *testing.T) {
	golden := []Class{
		{ErrTenant, "tenant", false},
		{ErrBadWire, "bad_wire", false},
		{ErrOverloaded, "overloaded", true},
		{ErrClosed, "closed", false},
		{ErrStaleReplica, "stale_replica", true},
		{ErrDiverged, "diverged", false},
		{ErrDurability, "durability", false},
		{ErrMemory, "memory", false},
		{ErrBudgetExceeded, "budget_exceeded", false},
		{ErrCanceled, "canceled", false},
		{ErrParse, "parse", false},
		{ErrBadStats, "bad_stats", false},
		{ErrInternal, "internal", true},
	}
	got := Taxonomy()
	if len(got) != len(golden) {
		t.Fatalf("taxonomy has %d rows, want %d", len(got), len(golden))
	}
	for i, want := range golden {
		if got[i] != want {
			t.Errorf("row %d = {%v, %q, %v}, want {%v, %q, %v}", i,
				got[i].Err, got[i].Code, got[i].Retryable, want.Err, want.Code, want.Retryable)
		}
	}
}

// Every row is reachable by each of its three keys, and an error chaining
// two sentinels takes the earlier row.
func TestTaxonomyLookups(t *testing.T) {
	for _, row := range Taxonomy() {
		wrapped := fmt.Errorf("outer: %w", row.Err)
		if c, ok := Classify(wrapped); !ok || c != row {
			t.Errorf("Classify(%v) = %+v, %v", wrapped, c, ok)
		}
		if c, ok := ClassByCode(row.Code); !ok || c != row {
			t.Errorf("ClassByCode(%q) = %+v, %v", row.Code, c, ok)
		}
		if Retryable(wrapped) != row.Retryable {
			t.Errorf("Retryable(%v) = %v", wrapped, !row.Retryable)
		}
	}
	if _, ok := Classify(errors.New("stray")); ok {
		t.Error("an error outside the taxonomy classified")
	}
	if _, ok := ClassByCode("no-such-code"); ok {
		t.Error("an unknown code resolved to a row")
	}
	if Retryable(nil) || Retryable(errors.New("stray")) {
		t.Error("nil or a stray error is retryable")
	}
	both := fmt.Errorf("%w: %w", ErrBudgetExceeded, &MemoryError{Operator: "sort"})
	if c, _ := Classify(both); c.Err != ErrMemory {
		t.Errorf("memory+budget chain classified as %q, want memory", c.Code)
	}
	// The structured errors classify as the sentinel they unwrap to;
	// pool pressure is load, so it is an overload, and retryable.
	if c, _ := Classify(&MemoryPressureError{Tenant: "t"}); c.Err != ErrOverloaded || !c.Retryable {
		t.Errorf("memory pressure classified as %q", c.Code)
	}
}

// Format then Parse is the identity on every knob, from a value that is
// not the zero value, and the keys are distinct.
func TestKnobsRoundTrip(t *testing.T) {
	set := Limits{
		Timeout: 1500 * time.Millisecond, MaxTuples: 11, MaxRows: 12, MaxPlans: 13, MaxMemory: 1 << 40,
		MaxConcurrent: 3, MaxQueue: 4, QueueTimeout: time.Minute, MaxReplicaLag: 5,
		DisableCache: true, PlanCacheSize: 6,
	}
	seen := make(map[string]bool)
	var back Limits
	for _, k := range Knobs {
		if seen[k.Key] {
			t.Errorf("knob %q listed twice", k.Key)
		}
		seen[k.Key] = true
		if k.Format(set) == k.Format(Limits{}) {
			t.Errorf("knob %q: the test's Limits leaves it at zero", k.Key)
		}
		for _, l := range []Limits{{}, set} {
			var parsed Limits
			if err := k.Parse(&parsed, k.Format(l)); err != nil {
				t.Errorf("knob %q: Parse(Format) failed: %v", k.Key, err)
			} else if k.Format(parsed) != k.Format(l) {
				t.Errorf("knob %q: %s parsed back as %s", k.Key, k.Format(l), k.Format(parsed))
			}
		}
		if err := k.Parse(&back, k.Format(set)); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []string{"", "-1", "maybe", "1.5.2"} {
			before := back
			if err := k.Parse(&back, bad); err == nil || back != before {
				t.Errorf("knob %q accepted %q (or changed the limits rejecting it)", k.Key, bad)
			}
		}
	}
	// The knobs cover exactly the fields the test set: rebuilt knob by knob,
	// the limits are the same struct.
	if back != set {
		t.Errorf("rebuilt %+v, want %+v", back, set)
	}
}

// A bound flag defaults to the Limits' current value and writes through.
func TestBindFlags(t *testing.T) {
	l := Limits{Timeout: 30 * time.Second, MaxConcurrent: 8}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindFlags(fs, &l, "timeout", "max-concurrent", "tuples")
	if got := fs.Lookup("timeout").DefValue; got != "30s" {
		t.Errorf("-timeout default %q, want 30s", got)
	}
	if err := fs.Parse([]string{"-max-tuples", "7", "-max-concurrent=2"}); err != nil {
		t.Fatal(err)
	}
	if want := (Limits{Timeout: 30 * time.Second, MaxConcurrent: 2, MaxTuples: 7}); l != want {
		t.Errorf("parsed %+v, want %+v", l, want)
	}
	if err := fs.Parse([]string{"-timeout", "soon"}); err == nil {
		t.Error("-timeout soon accepted")
	}
}
