package els_test

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/governor"
	"repro/internal/wire"
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

// deploy/OBSERVABILITY.md documents the OpStats document in three tables:
// per tenant, server-wide and the per-tenant plan_cache object. This holds
// each table's Fields column to the JSON keys of the type it documents,
// embedded sections included: every backticked field is a key, and every
// key is in its table.
func TestObservabilityDocListsTheStatsKeys(t *testing.T) {
	raw, err := os.ReadFile("deploy/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for heading, typ := range map[string]reflect.Type{
		"Per-tenant":  reflect.TypeOf(wire.TenantStats{}),
		"Server-wide": reflect.TypeOf(wire.ServerStats{}),
		"Plan cache":  reflect.TypeOf(counters.PlanCache{}),
	} {
		_, section, ok := strings.Cut(string(raw), "\n## "+heading)
		if !ok {
			t.Fatalf("OBSERVABILITY.md has no %q section", heading)
		}
		section, _, _ = strings.Cut(section, "\n## ")
		var listed []string
		for _, row := range regexp.MustCompile("(?m)^\\| [^|]+ \\| ([^|]+) \\|").FindAllStringSubmatch(section, -1) {
			for _, f := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(row[1], -1) {
				listed = append(listed, f[1])
			}
		}
		keys := jsonKeys(typ)
		for _, f := range listed {
			if !slices.Contains(keys, f) {
				t.Errorf("%s table lists `%s`, which is not a JSON key of %s", heading, f, typ)
			}
		}
		for _, k := range keys {
			if !slices.Contains(listed, k) {
				t.Errorf("%s table does not list `%s`, a JSON key of %s", heading, k, typ)
			}
		}
	}
}

// jsonKeys lists the JSON object keys encoding/json gives a struct type,
// flattening embedded structs that carry no tag of their own.
func jsonKeys(typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Anonymous && tag == "":
			keys = append(keys, jsonKeys(f.Type)...)
		case f.IsExported() && tag == "":
			keys = append(keys, f.Name)
		case f.IsExported() && tag != "-":
			keys = append(keys, tag)
		}
	}
	return keys
}
