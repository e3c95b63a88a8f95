package main

import "testing"

// TestExitStatus pins elslint's exit status: 0 on a clean package, 1 on
// findings, 2 when the packages do not load.
func TestExitStatus(t *testing.T) {
	const fixtures = "../../internal/analyzers/locks/testdata/src/"
	for _, tc := range []struct {
		pattern string
		want    int
	}{
		{fixtures + "lockorder/a", 0},
		{fixtures + "close_race", 1},
		{"./no-such-package", 2},
	} {
		if got := standalone([]string{tc.pattern}); got != tc.want {
			t.Errorf("elslint %s exited %d, want %d", tc.pattern, got, tc.want)
		}
	}
}
