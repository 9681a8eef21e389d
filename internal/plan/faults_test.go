package plan

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestFaultValueSyntaxBothParsers pins where the two fault-plan readers
// agree on value syntax and where they differ on purpose. A quoted
// duration or string is accepted by both, an empty duration is rejected by
// both, and a quoted number by both. The flat `dapes-sim -faults` format
// also takes durations and strings unquoted (its documented form); a plan
// file is typed TOML or JSON, so there an unquoted value is an error.
func TestFaultValueSyntaxBothParsers(t *testing.T) {
	t.Parallel()
	cases := []struct {
		line       string
		flat, plan bool // accepted by fault.Parse, by a plan's [faults]
		want       fault.Plan
	}{
		{`crash_until = "90s"`, true, true, fault.Plan{CrashUntil: 90 * time.Second}},
		{`crash_until = 90s`, true, false, fault.Plan{CrashUntil: 90 * time.Second}},
		{`crash_until = ""`, false, false, fault.Plan{}},
		{`loss_model = "iid"`, true, true, fault.Plan{LossModel: fault.LossIID}},
		{`loss_model = iid`, true, false, fault.Plan{LossModel: fault.LossIID}},
		{`loss_model = ""`, true, true, fault.Plan{}},
		{`crash_frac = 0`, true, true, fault.Plan{}},
		{`crash_frac = "0"`, false, false, fault.Plan{}},
	}
	for _, tc := range cases {
		got, err := fault.Parse([]byte(tc.line))
		if (err == nil) != tc.flat {
			t.Errorf("fault.Parse(%s): error %v, want accepted=%v", tc.line, err, tc.flat)
		} else if err == nil && *got != tc.want {
			t.Errorf("fault.Parse(%s) = %+v, want %+v", tc.line, *got, tc.want)
		}
		p, err := Parse([]byte("name = \"syntax\"\nscenario = \"urban-grid-chaos\"\n\n[faults]\n" + tc.line + "\n"))
		if (err == nil) != tc.plan {
			t.Errorf("plan [faults] %s: error %v, want accepted=%v", tc.line, err, tc.plan)
		} else if err == nil && *p.Base.Faults != tc.want {
			t.Errorf("plan [faults] %s = %+v, want %+v", tc.line, *p.Base.Faults, tc.want)
		}
	}
}
