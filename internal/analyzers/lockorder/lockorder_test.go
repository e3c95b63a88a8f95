package lockorder

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestCloseRace pins the PR-8 shutdown deadlock fixture: the two-lock
// inversion must surface as both a hierarchy violation and a cycle with
// its witness chain.
func TestCloseRace(t *testing.T) {
	analysistest.Run(t, Analyzer, "close_race")
}

// TestCrossPackage pins fact flow: package b's diagnostics depend on the
// FuncFact exported while analyzing package a, and on a manually declared
// //lockorder:edge.
func TestCrossPackage(t *testing.T) {
	analysistest.Run(t, Analyzer, "lockorder/b")
}

// TestPromotedField pins that a lock reached through an embedded struct is
// named, and levelled, by the struct that declares it.
func TestPromotedField(t *testing.T) {
	analysistest.Run(t, Analyzer, "promoted")
}
