package fault

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file holds the one table of fault-plan keys and parses the
// standalone fault-plan format `dapes-sim -faults` accepts: flat
// `key = value` lines using exactly the key names of a plan file's
// [faults] section (internal/plan decodes that section through the same
// table, Decode, into the same Plan). '#' starts a comment, blank lines
// are skipped, and an optional `[faults]` header line is accepted so a
// section can be copy-pasted out of a plan file verbatim. Durations are
// Go duration strings and strings are written quoted ("90s"), as in a
// plan file, or unquoted (90s), which only this format takes; an empty
// duration is an error in either reader; everything else is a number.
// Parse returns an error — never panics — on malformed input
// (FuzzFaultPlan pins that against a committed corpus).

// keys maps each fault-plan key to its Plan field. The field's type is
// the key's kind: *float64 takes a number, *time.Duration a Go duration
// ("90s"), *string a string. Parse and internal/plan's [faults] decoder
// both walk the table in this order, so the first error either reports
// is deterministic.
var keys = []struct {
	name  string
	field func(p *Plan) any
}{
	{"crash_frac", func(p *Plan) any { return &p.CrashFrac }},
	{"crash_from", func(p *Plan) any { return &p.CrashFrom }},
	{"crash_until", func(p *Plan) any { return &p.CrashUntil }},
	{"restart_min", func(p *Plan) any { return &p.RestartMin }},
	{"restart_max", func(p *Plan) any { return &p.RestartMax }},
	{"jam_x", func(p *Plan) any { return &p.JamX }},
	{"jam_y", func(p *Plan) any { return &p.JamY }},
	{"jam_radius", func(p *Plan) any { return &p.JamRadius }},
	{"jam_from", func(p *Plan) any { return &p.JamFrom }},
	{"jam_until", func(p *Plan) any { return &p.JamUntil }},
	{"loss_model", func(p *Plan) any { return &p.LossModel }},
	{"loss_p_good", func(p *Plan) any { return &p.PGood }},
	{"loss_p_bad", func(p *Plan) any { return &p.PBad }},
	{"loss_good_to_bad", func(p *Plan) any { return &p.GoodToBad }},
	{"loss_bad_to_good", func(p *Plan) any { return &p.BadToGood }},
}

// Keys returns the fault-plan key names in table order.
func Keys() []string {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.name
	}
	return names
}

// Decode builds a Plan by walking the key table in order: for each key it
// calls set with the key name and a pointer to the key's field — a
// *float64, *time.Duration or *string — for set to fill from its own
// source, or leave at zero when the key is absent. The caller keeps the
// first error it meets; Decode does not validate the plan.
func Decode(set func(key string, field any)) *Plan {
	p := &Plan{}
	for _, k := range keys {
		set(k.name, k.field(p))
	}
	return p
}

// key returns the name of the key whose field f points to in p.
func (p *Plan) key(f any) string {
	for _, k := range keys {
		if k.field(p) == f {
			return k.name
		}
	}
	return ""
}

// Parse decodes a flat fault plan and validates it.
func Parse(src []byte) (*Plan, error) {
	type value struct {
		line int
		text string
	}
	known := Keys()
	vals := make(map[string]value)
	for ln, line := range strings.Split(string(src), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || line == "[faults]" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("fault: line %d: want `key = value`, got %q", ln+1, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !slices.Contains(known, key) {
			return nil, fmt.Errorf("fault: line %d: unknown key %q", ln+1, key)
		}
		if _, dup := vals[key]; dup {
			return nil, fmt.Errorf("fault: line %d: duplicate key %q", ln+1, key)
		}
		vals[key] = value{ln + 1, val}
	}
	var err error
	p := Decode(func(key string, field any) {
		if v, ok := vals[key]; ok && err == nil {
			if e := setText(field, v.text); e != nil {
				err = fmt.Errorf("fault: line %d: %s: %w", v.line, key, e)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseFile reads and parses a fault-plan file.
func ParseFile(path string) (*Plan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}

// setText parses one value of the flat format into field. Durations and
// strings may be quoted.
func setText(field any, val string) error {
	unquoted := val
	if len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"' {
		unquoted = val[1 : len(val)-1]
	}
	switch dst := field.(type) {
	case *float64:
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("want a number, got %q", val)
		}
		*dst = v
	case *time.Duration:
		v, err := time.ParseDuration(unquoted)
		if err != nil {
			return fmt.Errorf("want a duration like \"90s\", got %q", val)
		}
		*dst = v
	case *string:
		*dst = unquoted
	}
	return nil
}
