// Package analyzers registers the elslint invariant-checker suite. Each
// analyzer mechanically enforces one cross-cutting contract the serving
// pipeline's correctness rests on; see the per-analyzer package docs and
// DESIGN.md's "Mechanically enforced invariants" section for the contract
// histories.
package analyzers

import (
	"repro/internal/analysis"
	"repro/internal/analyzers/atomicwrite"
	"repro/internal/analyzers/ctxflow"
	"repro/internal/analyzers/errtaxonomy"
	"repro/internal/analyzers/locks"
	"repro/internal/analyzers/nakedgoroutine"
	"repro/internal/analyzers/snapshotmut"
)

// All returns the elslint analyzers in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errtaxonomy.Analyzer,
		nakedgoroutine.Analyzer,
		ctxflow.Analyzer,
		snapshotmut.Analyzer,
		atomicwrite.Analyzer,
		locks.Order,
		locks.Safe,
	}
}
