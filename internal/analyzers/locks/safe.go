package locks

// The locksafe check enforces the local discipline around every mutex
// acquisition, complementing lockorder's global graph:
//
//   - every Lock/RLock must be paired with a release on every path out of
//     the function — a deferred Unlock/RUnlock, or an explicit release
//     before each return (the conditional-unlock-then-return shape is
//     tracked path-sensitively);
//   - no lock may be held across a blocking channel operation (send,
//     receive, select without default, range over a channel) or a
//     sync.WaitGroup.Wait — a blocked peer keeps the lock held
//     indefinitely, turning one slow consumer into a system-wide stall.
//
// `//locksafe:allow <reason>` on the acquisition or the blocking site
// accepts a deliberate exception (a send on a buffered channel whose
// capacity is established by construction, a lock handed to the caller).
// The check is intra-procedural by design; the cross-function ordering
// story is lockorder's job.

import (
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

func runSafe(pass *analysis.Pass) error {
	s := &safety{pass: pass, dirs: analysis.NewDirectives(pass.Fset, pass.Files), reported: make(map[reportKey]bool)}
	walk(pass, func(string, types.Object) events { return s })
	return nil
}

// safety reports the locksafe findings of one package.
type safety struct {
	pass     *analysis.Pass
	dirs     *analysis.Directives
	reported map[reportKey]bool
}

type reportKey struct {
	lock string
	pos  token.Pos
}

func (*safety) acquire(string, token.Pos, []heldLock, bool) {}
func (*safety) call(types.Object, token.Pos, []heldLock)    {}

// fresh reports whether held lock h is neither allowed nor already
// reported at at under key, and marks it reported.
func (s *safety) fresh(h heldLock, at token.Pos, key string) bool {
	if s.dirs.Allowed(h.pos, "locksafe") || s.dirs.Allowed(at, "locksafe") {
		return false
	}
	k := reportKey{h.name + key, at}
	if s.reported[k] {
		return false
	}
	s.reported[k] = true
	return true
}

func (s *safety) exit(at token.Pos, held []heldLock) {
	for _, h := range held {
		if s.fresh(h, at, "") {
			s.pass.Reportf(at, "lock %s (acquired at %s) may still be held on this path out of the function; release it before returning, defer the unlock, or annotate //locksafe:allow",
				h.name, s.pass.Fset.Position(h.pos))
		}
	}
}

func (s *safety) block(what string, at token.Pos, held []heldLock) {
	for _, h := range held {
		if s.fresh(h, at, "#"+what) {
			s.pass.Reportf(at, "%s while holding %s; a blocked counterpart keeps the lock held indefinitely — release first or annotate //locksafe:allow",
				what, h.name)
		}
	}
}
