package els_test

import (
	"io/fs"
	"os"
	"path/filepath"
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

// CI and the verify notes run tests by -run pattern, and go test passes
// silently when an alternative of one matches no test. This holds every
// Test… alternative of every -run pattern in .github/workflows/ci.yml and
// .claude/skills/verify/SKILL.md, groups multiplied out, to at least one
// test function declared in the tree.
func TestRunPatternsNameTests(t *testing.T) {
	var tests []string
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			tests = append(tests, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile("-run\\s+(?:'([^']*)'|\"([^\"]*)\"|([^\\s`]+))")
	for _, doc := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		named := 0
		for _, m := range run.FindAllStringSubmatch(string(raw), -1) {
			for _, alt := range runAlternatives(m[1] + m[2] + m[3]) {
				alt, _, _ = strings.Cut(strings.TrimPrefix(alt, "^"), "/")
				if !strings.HasPrefix(alt, "Test") {
					continue
				}
				named++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", doc, alt, err)
				} else if !slices.ContainsFunc(tests, re.MatchString) {
					t.Errorf("%s: -run alternative %q matches no test function", doc, alt)
				}
			}
		}
		if named == 0 {
			t.Errorf("%s: no -run pattern names a test", doc)
		}
	}
}

// runAlternatives lists the alternatives of a -run pattern with every
// parenthesized group multiplied out: "A(B|C)|D" is AB, D and AC.
func runAlternatives(p string) []string {
	open, end, depth := strings.IndexByte(p, '('), -1, 0
	for i := max(open, 0); open >= 0 && i < len(p) && end < 0; i++ {
		switch p[i] {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				end = i
			}
		}
	}
	if end < 0 { // no group, or an unbalanced one regexp.Compile reports
		return strings.Split(p, "|")
	}
	var out []string
	for _, inner := range runAlternatives(p[open+1 : end]) {
		for _, alt := range runAlternatives(p[:open] + inner + p[end+1:]) {
			if !slices.Contains(out, alt) {
				out = append(out, alt)
			}
		}
	}
	return out
}
