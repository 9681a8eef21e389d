package plan

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"dapes/internal/fault"
)

// TestFaultsSectionMatchesFaultParse pins the one fault-plan schema: the
// [faults] section of plans/chaos-smoke.toml decodes to the same
// fault.Plan through ParseFile, through the JSON form of the same section,
// and through fault.Parse of the section's text (what `dapes-sim -faults`
// reads).
func TestFaultsSectionMatchesFaultParse(t *testing.T) {
	t.Parallel()
	const file = "../../plans/chaos-smoke.toml"
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n[faults]\n")
	if !ok || strings.Contains(section, "[") {
		t.Fatalf("%s: want [faults] as the last table", file)
	}
	want, err := fault.Parse([]byte(section))
	if err != nil {
		t.Fatal(err)
	}
	if want.Empty() {
		t.Fatalf("%s: [faults] section parses to an empty plan", file)
	}

	p, err := ParseFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Base.Faults, want) {
		t.Errorf("TOML plan [faults] = %+v, fault.Parse = %+v", p.Base.Faults, want)
	}

	// The JSON form: every `key = value` line as a "key": value member.
	// Each value in the section is a JSON number or a JSON string as
	// written.
	var members []string
	for _, line := range strings.Split(section, "\n") {
		if key, val, ok := strings.Cut(line, "="); ok {
			members = append(members, fmt.Sprintf("%q: %s", strings.TrimSpace(key), strings.TrimSpace(val)))
		}
	}
	src := `{"name": "faults-json", "scenario": "urban-grid-chaos", "faults": {` + strings.Join(members, ", ") + `}}`
	jp, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("JSON plan %s: %v", src, err)
	}
	if !reflect.DeepEqual(jp.Base.Faults, want) {
		t.Errorf("JSON plan faults = %+v, fault.Parse = %+v", jp.Base.Faults, want)
	}
}
