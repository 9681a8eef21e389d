package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"dapes/internal/experiment"
	"dapes/internal/fault"
)

// MaxPlanFileSize bounds plan files. Plans are a few dozen lines; the
// bound keeps a mis-pointed path (a results file, a core dump) from being
// slurped and parsed wholesale.
const MaxPlanFileSize = 1 << 20

// ParseFile reads and parses a plan file. The format is sniffed from the
// content ('{' opens JSON, anything else is the TOML subset), so the
// extension is convention only.
func ParseFile(path string) (*Plan, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.Size() > MaxPlanFileSize {
		return nil, fmt.Errorf("plan file %s is %d bytes, limit %d", path, info.Size(), MaxPlanFileSize)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Parse decodes, defaults, and validates a plan from TOML-subset or JSON
// bytes. It never panics on malformed input — FuzzPlanFile holds it to
// that — and a returned plan is always Validate-clean.
func Parse(data []byte) (*Plan, error) {
	if len(data) > MaxPlanFileSize {
		return nil, fmt.Errorf("plan input is %d bytes, limit %d", len(data), MaxPlanFileSize)
	}
	var (
		tree map[string]any
		err  error
	)
	if isJSON(data) {
		tree, err = parseJSON(data)
	} else {
		tree, err = parseTOML(data)
	}
	if err != nil {
		return nil, err
	}
	p, err := decodePlan(tree)
	if err != nil {
		return nil, err
	}
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// isJSON sniffs the format: the first non-whitespace byte decides.
func isJSON(data []byte) bool {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '{'
}

func parseJSON(data []byte) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // keep int64 seeds exact
	var tree map[string]any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("invalid JSON plan: %w", err)
	}
	// A second document after the first is a malformed file, not extra data
	// to ignore.
	if dec.More() {
		return nil, fmt.Errorf("invalid JSON plan: trailing content after the plan object")
	}
	return tree, nil
}

// decodePlan maps the generic tree onto a Plan with strict keys: every
// unknown key is an error naming its path, so typos fail loudly instead of
// silently sweeping a default.
func decodePlan(tree map[string]any) (*Plan, error) {
	p := &Plan{Seed: 1, Base: experiment.ReducedScale()}
	d := &decoder{}

	top := d.strict(tree, "", "name", "scenario", "summary", "optimize", "trials", "seed", "grid", "scale", "faults")
	p.Name = d.str(top, "", "name", "")
	p.Scenario = d.str(top, "", "scenario", "")
	p.Summary = d.str(top, "", "summary", "")
	p.Trials = d.int(top, "", "trials", 1)
	p.Seed = d.int64(top, "", "seed", 1)
	for i, s := range d.strList(top, "", "optimize") {
		t, err := parseTarget(s)
		if err != nil {
			d.errf("optimize[%d]: %v", i, err)
			continue
		}
		p.Optimize = append(p.Optimize, t)
	}

	if g := d.table(top, "grid"); g != nil {
		gm := d.strict(g, "grid", "nodes", "ranges", "loss", "horizons")
		p.Grid.Nodes = d.intList(gm, "grid", "nodes")
		p.Grid.Ranges = d.floatList(gm, "grid", "ranges")
		p.Grid.Loss = d.floatList(gm, "grid", "loss")
		for i, s := range d.strList(gm, "grid", "horizons") {
			if dur, err := time.ParseDuration(s); err != nil {
				d.errf("grid.horizons[%d]: %v", i, err)
			} else {
				p.Grid.Horizons = append(p.Grid.Horizons, dur)
			}
		}
	}

	if sc := d.table(top, "scale"); sc != nil {
		sm := d.strict(sc, "scale", "files", "packets", "packet_size", "horizon",
			"stationary", "mobile_down", "pure_forwarders", "intermediates", "loss", "area_side", "shards")
		b := &p.Base
		b.NumFiles = d.int(sm, "scale", "files", b.NumFiles)
		b.PacketsPerFile = d.int(sm, "scale", "packets", b.PacketsPerFile)
		b.PacketSize = d.int(sm, "scale", "packet_size", b.PacketSize)
		b.Stationary = d.int(sm, "scale", "stationary", b.Stationary)
		b.MobileDown = d.int(sm, "scale", "mobile_down", b.MobileDown)
		b.PureForwarders = d.int(sm, "scale", "pure_forwarders", b.PureForwarders)
		b.Intermediates = d.int(sm, "scale", "intermediates", b.Intermediates)
		b.LossRate = d.float(sm, "scale", "loss", b.LossRate)
		b.AreaSide = d.float(sm, "scale", "area_side", b.AreaSide)
		b.Shards = d.int(sm, "scale", "shards", b.Shards)
		if s := d.str(sm, "scale", "horizon", ""); s != "" {
			if dur, err := time.ParseDuration(s); err != nil {
				d.errf("scale.horizon: %v", err)
			} else {
				b.Horizon = dur
			}
		}
	}

	if f := d.table(top, "faults"); f != nil {
		fm := d.strict(f, "faults", fault.Keys()...)
		p.Base.Faults = fault.Decode(func(key string, field any) {
			switch dst := field.(type) {
			case *float64:
				*dst = d.float(fm, "faults", key, 0)
			case *string:
				*dst = d.str(fm, "faults", key, "")
			case *time.Duration:
				// A present key must hold a duration: an empty string is
				// an error, as it is for fault.Parse.
				if _, ok := fm[key]; ok {
					if v, err := time.ParseDuration(d.str(fm, "faults", key, "")); err != nil {
						d.errf("faults.%s: %v", key, err)
					} else {
						*dst = v
					}
				}
			}
		})
	}

	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

// decoder accumulates the first decode error while letting field reads
// stay one-liners. All readers are nil-safe no-ops after an error.
type decoder struct {
	err error
}

func (d *decoder) errf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("plan: "+format, args...)
	}
}

func path(table, key string) string {
	if table == "" {
		return key
	}
	return table + "." + key
}

// strict returns m after rejecting keys outside allowed.
func (d *decoder) strict(m map[string]any, table string, allowed ...string) map[string]any {
	if m == nil {
		return nil
	}
	var unknown []string
	for k := range m {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			unknown = append(unknown, path(table, k))
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		d.errf("unknown key(s) %v (allowed in %s: %v)", unknown, sectionName(table), allowed)
	}
	return m
}

func sectionName(table string) string {
	if table == "" {
		return "plan"
	}
	return "[" + table + "]"
}

func (d *decoder) table(m map[string]any, key string) map[string]any {
	if d.err != nil || m == nil {
		return nil
	}
	v, ok := m[key]
	if !ok {
		return nil
	}
	t, ok := v.(map[string]any)
	if !ok {
		d.errf("%s: expected a table/object, got %T", key, v)
		return nil
	}
	return t
}

func (d *decoder) str(m map[string]any, table, key, def string) string {
	if d.err != nil || m == nil {
		return def
	}
	v, ok := m[key]
	if !ok {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.errf("%s: expected a string, got %T", path(table, key), v)
		return def
	}
	return s
}

// number coercion: TOML yields int64/float64, JSON yields json.Number.
func toInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case json.Number:
		i, err := n.Int64()
		return i, err == nil
	}
	return 0, false
}

func toFloat64(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int64:
		return float64(n), true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	}
	return 0, false
}

func (d *decoder) int64(m map[string]any, table, key string, def int64) int64 {
	if d.err != nil || m == nil {
		return def
	}
	v, ok := m[key]
	if !ok {
		return def
	}
	i, ok := toInt64(v)
	if !ok {
		d.errf("%s: expected an integer, got %v (%T)", path(table, key), v, v)
		return def
	}
	return i
}

func (d *decoder) int(m map[string]any, table, key string, def int) int {
	i := d.int64(m, table, key, int64(def))
	if int64(int(i)) != i {
		d.errf("%s: %d overflows int", path(table, key), i)
		return def
	}
	return int(i)
}

func (d *decoder) float(m map[string]any, table, key string, def float64) float64 {
	if d.err != nil || m == nil {
		return def
	}
	v, ok := m[key]
	if !ok {
		return def
	}
	f, ok := toFloat64(v)
	if !ok {
		d.errf("%s: expected a number, got %v (%T)", path(table, key), v, v)
		return def
	}
	return f
}

func (d *decoder) list(m map[string]any, table, key string) []any {
	if d.err != nil || m == nil {
		return nil
	}
	v, ok := m[key]
	if !ok {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		d.errf("%s: expected an array, got %T", path(table, key), v)
		return nil
	}
	return l
}

func (d *decoder) strList(m map[string]any, table, key string) []string {
	raw := d.list(m, table, key)
	out := make([]string, 0, len(raw))
	for i, v := range raw {
		s, ok := v.(string)
		if !ok {
			d.errf("%s[%d]: expected a string, got %T", path(table, key), i, v)
			return nil
		}
		out = append(out, s)
	}
	return out
}

func (d *decoder) intList(m map[string]any, table, key string) []int {
	raw := d.list(m, table, key)
	out := make([]int, 0, len(raw))
	for i, v := range raw {
		n, ok := toInt64(v)
		if !ok || int64(int(n)) != n {
			d.errf("%s[%d]: expected an integer, got %v (%T)", path(table, key), i, v, v)
			return nil
		}
		out = append(out, int(n))
	}
	return out
}

func (d *decoder) floatList(m map[string]any, table, key string) []float64 {
	raw := d.list(m, table, key)
	out := make([]float64, 0, len(raw))
	for i, v := range raw {
		f, ok := toFloat64(v)
		if !ok {
			d.errf("%s[%d]: expected a number, got %v (%T)", path(table, key), i, v, v)
			return nil
		}
		out = append(out, f)
	}
	return out
}
