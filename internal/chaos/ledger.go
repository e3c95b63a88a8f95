package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/governor"
	"repro/internal/wire"
	"repro/internal/workpool"
)

// ledger is the bookkeeping every storm embeds: the Report it fills in
// (contract violations, operation outcomes classified by the error
// taxonomy, named counts), the fleet launcher, and the JSONL event log. Its
// mu also guards the embedding storm's own shared state.
type ledger struct {
	// logW, if non-nil, receives one JSON line per event.
	logW io.Writer
	// opTimeout bounds each operation of the wire clients dial opens.
	opTimeout time.Duration

	//lockorder:level 5
	mu  sync.Mutex
	rep Report

	//lockorder:level 70
	logMu sync.Mutex
}

// violationf records one contract breach.
func (l *ledger) violationf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.rep.Violations = append(l.rep.Violations, msg)
	l.mu.Unlock()
	l.logEvent(map[string]any{"event": "violation", "msg": msg})
}

// count adds n to the report's count called name.
func (l *ledger) count(name string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rep.Counts == nil {
		l.rep.Counts = make(map[string]int)
	}
	l.rep.Counts[name] += n
}

// counted returns the report's count called name.
func (l *ledger) counted(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rep.Counts[name]
}

// record classifies one operation outcome by the taxonomy table (the class
// name is the row's wire code); an error outside the taxonomy is a contract
// violation.
func (l *ledger) record(actor, op string, err error) {
	class := "ok"
	if err != nil {
		if c, ok := governor.Classify(err); ok {
			class = c.Code
		} else {
			class = "UNCLASSIFIED"
			l.violationf("%s %s: error outside the taxonomy: %v", actor, op, err)
		}
	}
	l.mu.Lock()
	l.rep.Ops++
	if err == nil {
		l.rep.Succeeded++
	} else {
		if l.rep.ErrorsByClass == nil {
			l.rep.ErrorsByClass = make(map[string]int)
		}
		l.rep.ErrorsByClass[class]++
	}
	l.mu.Unlock()
	l.logEvent(map[string]any{"event": "op", "actor": actor, "op": op, "class": class})
}

// report returns what the ledger has recorded; the copy shares its maps,
// so a storm takes it once its goroutines have exited.
func (l *ledger) report() *Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := l.rep
	return &rep
}

// fleet runs worker(0) … worker(n-1) and every background function on
// their own goroutines, closes the background functions' stop channel once
// the workers have returned, and returns when every goroutine has. A panic
// in any of them is recorded as a violation instead of crashing the soak.
func (l *ledger) fleet(n int, worker func(i int), background ...func(stop <-chan struct{})) {
	onPanic := func(err error) { l.violationf("chaos: fleet goroutine failed: %v", err) }
	stop := make(chan struct{})
	var bg, workers sync.WaitGroup
	for _, f := range background {
		workpool.Go(&bg, onPanic, func() error { f(stop); return nil })
	}
	for i := 0; i < n; i++ {
		workpool.Go(&workers, onPanic, func() error { worker(i); return nil })
	}
	workers.Wait()
	close(stop)
	bg.Wait()
}

// logEvent writes one JSONL record to the event log.
func (l *ledger) logEvent(fields map[string]any) {
	if l.logW == nil {
		return
	}
	b, err := json.Marshal(fields)
	if err != nil {
		return
	}
	l.logMu.Lock()
	defer l.logMu.Unlock()
	l.logW.Write(append(b, '\n'))
}

// dial opens a wire client, recording a violation on failure.
func (l *ledger) dial(ctx context.Context, addr string) *wire.Client {
	cl, err := wire.Dial(ctx, addr)
	if err != nil {
		l.violationf("chaos: dial %s failed: %v", addr, err)
		return nil
	}
	cl.OpTimeout = l.opTimeout
	return cl
}

// redial replaces a broken client.
func (l *ledger) redial(ctx context.Context, addr string, old *wire.Client) *wire.Client {
	old.Close()
	return l.dial(ctx, addr)
}

// pause waits d or until done closes, whichever comes first.
func pause(done <-chan struct{}, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// within runs a close, drain or settle step under a bounded deadline
// derived from ctx, so a wedged step fails the storm instead of hanging it.
func within(ctx context.Context, step func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	return step(ctx)
}

// isClosed reports whether done has been closed.
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// or returns v, or def when v is unset.
func or(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
