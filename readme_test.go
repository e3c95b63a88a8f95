package els_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/governor"
)

// README's "Robustness & resource limits" section lists the limits knobs;
// this holds the list to the knob table: one row per knob, in order, with
// the knob's key, its flag and the Limits field it sets, and no flag named
// anywhere in the section that the table does not define.
func TestReadmeListsTheKnobTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Robustness & resource limits\n")
	if !ok {
		t.Fatal("README has no \"Robustness & resource limits\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	row := regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\| (?:`-([a-z-]+)` )?\\| `([A-Za-z]+)` \\|$")
	rows := row.FindAllStringSubmatch(section, -1)
	if len(rows) != len(governor.Knobs) {
		t.Fatalf("README lists %d knobs, the table has %d", len(rows), len(governor.Knobs))
	}
	flags := make(map[string]bool)
	for i, k := range governor.Knobs {
		flags[k.Flag] = true
		// The field a knob sets is the one its Parse moves off zero.
		var l governor.Limits
		if err := k.Parse(&l, map[string]string{"D": "1s", "N": "1", "on|off": "off"}[k.Arg]); err != nil {
			t.Fatal(err)
		}
		field := ""
		for f, v := 0, reflect.ValueOf(l); f < v.NumField(); f++ {
			if !v.Field(f).IsZero() {
				field = v.Type().Field(f).Name
			}
		}
		if got := rows[i][1:]; got[0] != k.Key || got[1] != k.Flag || got[2] != field {
			t.Errorf("README row %d is %q, the table says [%s %s %s]", i, got, k.Key, k.Flag, field)
		}
	}
	for _, m := range regexp.MustCompile("`-([a-z-]+)`").FindAllStringSubmatch(section, -1) {
		if !flags[m[1]] {
			t.Errorf("README names flag -%s, which no knob defines", m[1])
		}
	}
}
