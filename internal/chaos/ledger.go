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
)

// ledger is the bookkeeping every harness embeds: contract violations,
// operation outcomes classified by the error taxonomy, and the JSONL event
// log. Its mu also guards the embedding harness's own shared state.
type ledger struct {
	// logW, if non-nil, receives one JSON line per event.
	logW io.Writer
	// opTimeout bounds each operation of the wire clients dial opens.
	opTimeout time.Duration

	//lockorder:level 5
	mu          sync.Mutex
	violations  []string
	ops         int
	succeeded   int
	errsByClass map[string]int

	//lockorder:level 70
	logMu sync.Mutex
}

// violation records one contract breach.
func (l *ledger) violation(msg string) {
	l.mu.Lock()
	l.violations = append(l.violations, msg)
	l.mu.Unlock()
	l.logEvent(map[string]any{"event": "violation", "msg": msg})
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
			l.violation(fmt.Sprintf("%s %s: error outside the taxonomy: %v", actor, op, err))
		}
	}
	l.mu.Lock()
	l.ops++
	if err == nil {
		l.succeeded++
	} else {
		if l.errsByClass == nil {
			l.errsByClass = make(map[string]int)
		}
		l.errsByClass[class]++
	}
	l.mu.Unlock()
	l.logEvent(map[string]any{"event": "op", "actor": actor, "op": op, "class": class})
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
		l.violation(fmt.Sprintf("chaos: dial %s failed: %v", addr, err))
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
