package repl

import (
	"strings"
	"testing"
	"time"

	els "repro"
)

// FuzzLimitsVerb holds `limits <anything>` to its contract: it never
// panics, a rejected argument fails the command and leaves the limits as
// they were, and an accepted one echoes a line that, typed back, sets the
// same limits.
func FuzzLimitsVerb(f *testing.F) {
	for _, seed := range []string{
		"", "off", "OFF", "tuples=5", "tuples=-3", "tuples=", "nonsense", "frobs=7",
		"queue-timeout=3x", "timeout=1h2m cache=off", "Cache=ON columnar=off",
		"memory=99999999999999999999", "max-queue=2 max-queue=3", "plan-cache-size=7 rows=x",
		"timeout=-1s", "tuples=1 off", "=", "a=b=c", "max-replica-lag=0x10",
	} {
		f.Add(seed)
	}
	start := els.Limits{MaxTuples: 7, QueueTimeout: time.Second, DisableCache: true}
	f.Fuzz(func(t *testing.T, args string) {
		var out strings.Builder
		p := New(&out)
		p.System().SetLimits(start)
		_, err := p.Execute("limits " + args)
		got := p.System().Limits()
		if err != nil {
			if got != start {
				t.Fatalf("limits %q failed (%v) but changed the limits to %+v", args, err, got)
			}
			return
		}
		if got == start {
			return
		}
		printed := strings.TrimSpace(out.String())
		if printed == "limits cleared" {
			if got != (els.Limits{}) {
				t.Fatalf("limits %q: cleared to %+v", args, got)
			}
			return
		}
		echo, ok := strings.CutPrefix(printed, "limits set: ")
		if !ok {
			t.Fatalf("limits %q changed the limits to %+v but printed %q", args, got, printed)
		}
		var discard strings.Builder
		q := New(&discard)
		if _, err := q.Execute("limits " + echo); err != nil {
			t.Fatal(err)
		}
		if back := q.System().Limits(); back != got {
			t.Fatalf("limits %q: echo %q sets %+v, the limits are %+v", args, echo, back, got)
		}
	})
}
