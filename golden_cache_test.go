package els_test

import (
	"fmt"
	"testing"

	els "repro"
	"repro/internal/experiment"
)

// The golden T1 pin, served twice through the public API: the cold pass
// plans every row from scratch, the second pass — same catalog version —
// must be served entirely from plan-cache hits and still reproduce the
// paper's printed values digit for digit at six significant figures. A
// cache that perturbed so much as the last digit of an estimate would
// fail the same assertions the cold path is pinned by.
func TestGoldenEstimatesServedFromCache(t *testing.T) {
	sys := els.New()
	sys.MustDeclareStats("S", 1000, map[string]float64{"s": 1000})
	sys.MustDeclareStats("M", 10000, map[string]float64{"m": 10000})
	sys.MustDeclareStats("B", 50000, map[string]float64{"b": 50000})
	sys.MustDeclareStats("G", 100000, map[string]float64{"g": 100000})

	pins := []struct {
		algo  els.Algorithm
		order []string
		sizes []string
	}{
		{els.AlgorithmSM, []string{"S", "M", "B", "G"}, []string{"100", "100", "100"}},
		{els.AlgorithmSMPTC, []string{"S", "B", "M", "G"}, []string{"0.2", "4e-08", "4e-21"}},
		{els.AlgorithmSSS, []string{"S", "B", "M", "G"}, []string{"0.2", "0.0004", "4e-07"}},
		{els.AlgorithmELS, []string{"S", "B", "M", "G"}, []string{"100", "100", "100"}},
	}
	check := func(pass string) {
		t.Helper()
		for _, p := range pins {
			est, err := sys.EstimateOrder(experiment.Section8Query, p.algo, p.order)
			if err != nil {
				t.Fatalf("%s pass, %s: %v", pass, p.algo, err)
			}
			if len(est.Steps) != len(p.sizes) {
				t.Fatalf("%s pass, %s: %d steps, want %d", pass, p.algo, len(est.Steps), len(p.sizes))
			}
			for j, want := range p.sizes {
				if got := fmt.Sprintf("%.6g", est.Steps[j].Size); got != want {
					t.Errorf("%s pass, %s step %d = %s, want %s digit-for-digit",
						pass, p.algo, j, got, want)
				}
			}
		}
	}

	check("cold")
	afterCold := sys.Stats().Cache
	if afterCold.Misses != uint64(len(pins)) || afterCold.Hits != 0 {
		t.Fatalf("cold pass: stats %+v, want %d misses and 0 hits", afterCold, len(pins))
	}
	check("cached")
	afterWarm := sys.Stats().Cache
	if afterWarm.Misses != afterCold.Misses {
		t.Fatalf("second pass missed the cache: %+v", afterWarm)
	}
	if afterWarm.Hits != uint64(len(pins)) {
		t.Fatalf("second pass: %d hits, want %d (every pin served from cache)",
			afterWarm.Hits, len(pins))
	}
}
