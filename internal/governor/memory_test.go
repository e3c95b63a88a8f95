package governor

import (
	"context"
	"errors"
	"testing"
)

// The bytes ledger: charges accumulate, releases return them, and the
// peak is the high-water mark regardless of later releases.
func TestMemoryLedger(t *testing.T) {
	g := New(context.Background(), Limits{MaxMemory: 1 << 20})
	g.ChargeBytes(100)
	g.ChargeBytes(300)
	if used, peak, _ := g.MemoryUsage(); used != 400 || peak != 400 {
		t.Fatalf("used=%d peak=%d after two charges, want 400/400", used, peak)
	}
	g.ReleaseBytes(300)
	g.ChargeBytes(50)
	if used, peak, _ := g.MemoryUsage(); used != 150 || peak != 400 {
		t.Fatalf("used=%d peak=%d, want 150 live with peak pinned at 400", used, peak)
	}
}

// GrabBytes is the hard allocation path: it fails with a typed
// *MemoryError (matching ErrMemory, carrying the operator and the sizes)
// when the budget cannot cover the request, and charges otherwise.
func TestGrabBytesTypedFailure(t *testing.T) {
	g := New(context.Background(), Limits{MaxMemory: 1000})
	if err := g.GrabBytes(600, "sort scratch"); err != nil {
		t.Fatal(err)
	}
	err := g.GrabBytes(600, "sort scratch")
	if !errors.Is(err, ErrMemory) {
		t.Fatalf("over-budget grab returned %v, want ErrMemory", err)
	}
	var me *MemoryError
	if !errors.As(err, &me) {
		t.Fatalf("over-budget grab returned %T, want *MemoryError", err)
	}
	if me.Operator != "sort scratch" || me.Limit != 1000 || me.Used != 600 || me.Requested != 600 {
		t.Fatalf("MemoryError fields %+v, want operator/limit/used/requested filled", me)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("ErrMemory must not be retryable: it matched ErrOverloaded")
	}
	if used, _, _ := g.MemoryUsage(); used != 600 {
		t.Fatalf("failed grab leaked a charge: used=%d, want 600", used)
	}
}

// Without a budget the grab path never fails and ShouldSpill never fires:
// unbudgeted queries behave exactly as before the ledger existed.
func TestMemoryUnenforcedWithoutBudget(t *testing.T) {
	g := New(context.Background(), Limits{})
	if g.MemoryEnforced() {
		t.Fatal("zero MaxMemory reported as enforced")
	}
	if err := g.GrabBytes(1<<40, "anything"); err != nil {
		t.Fatalf("unbudgeted grab failed: %v", err)
	}
	if g.ShouldSpill(1 << 40) {
		t.Fatal("unbudgeted governor wants to spill")
	}
}

// ShouldSpill trips on either trigger: the build does not fit the budget
// on top of the live working set, or it exceeds the planner's
// estimate-informed pre-reservation (the early trip for bad estimates).
func TestShouldSpillTriggers(t *testing.T) {
	g := New(context.Background(), Limits{MaxMemory: 1000})
	if g.ShouldSpill(900) {
		t.Fatal("a build that fits an idle budget spilled")
	}
	g.ChargeBytes(400)
	if !g.ShouldSpill(900) {
		t.Fatal("400 live + 900 build fits a 1000-byte budget?")
	}
	if g.ShouldSpill(500) {
		t.Fatal("400 live + 500 build should fit")
	}
	g.ReserveBytes(300)
	if !g.ShouldSpill(500) {
		t.Fatal("a build over the 300-byte pre-reservation must trip early")
	}
	if _, _, reserved := g.MemoryUsage(); reserved != 300 {
		t.Fatalf("reserved=%d, want 300", reserved)
	}
}

// RecordSpill feeds the observability counters the serving layer exports.
func TestSpillStats(t *testing.T) {
	g := New(context.Background(), Limits{MaxMemory: 1000})
	if c, b := g.SpillStats(); c != 0 || b != 0 {
		t.Fatalf("fresh governor reports %d spills / %d bytes", c, b)
	}
	g.RecordSpill(4096)
	g.RecordSpill(1024)
	if c, b := g.SpillStats(); c != 2 || b != 5120 {
		t.Fatalf("SpillStats=(%d,%d), want (2,5120)", c, b)
	}
}

// The nil governor stays a universal no-op across the whole bytes API.
func TestNilGovernorMemoryNoOp(t *testing.T) {
	var g *Governor
	g.ChargeBytes(100)
	g.ReleaseBytes(100)
	g.ReserveBytes(100)
	g.RecordSpill(100)
	if err := g.GrabBytes(1<<40, "x"); err != nil {
		t.Fatal(err)
	}
	if g.MemoryEnforced() || g.ShouldSpill(1) || g.MaxMemory() != 0 {
		t.Fatal("nil governor enforces memory")
	}
	if u, p, r := g.MemoryUsage(); u != 0 || p != 0 || r != 0 {
		t.Fatalf("nil governor usage (%d,%d,%d)", u, p, r)
	}
	if c, b := g.SpillStats(); c != 0 || b != 0 {
		t.Fatalf("nil governor spill stats (%d,%d)", c, b)
	}
}

// MemoryPressureError is the shed-side twin: retryable (ErrOverloaded),
// never ErrMemory, with the tenant and sizes preserved through errors.As.
func TestMemoryPressureErrorIdentity(t *testing.T) {
	err := error(&MemoryPressureError{Tenant: "t0", Requested: 512, InUse: 256, Share: 640})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("pressure shed must be retryable (ErrOverloaded)")
	}
	if errors.Is(err, ErrMemory) {
		t.Fatal("pressure shed matched ErrMemory: clients would stop retrying")
	}
	var pe *MemoryPressureError
	if !errors.As(err, &pe) || pe.Tenant != "t0" || pe.Requested != 512 {
		t.Fatalf("pressure error lost its fields: %+v", pe)
	}
}
