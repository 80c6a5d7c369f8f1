package search

import (
	"fmt"
	"strconv"
	"strings"
)

// The default axis specs of a search: the `optima search` flag defaults,
// and the space an optima-server job explores when its request names none.
const (
	DefaultTau0Spec   = "0.16:0.28:100"
	DefaultVDAC0Spec  = "0.3:0.5:3"
	DefaultVDACFSSpec = "0.7:1.0:4"
)

// ParseAxisSpec parses the user-facing axis spec shared by the `optima
// search` CLI flags and the optima-server's JSON job requests. Two forms:
//
//	min:max:steps[:log]   a materialized range, e.g. "0.16:0.28:100"
//	v1,v2,...             explicit values, e.g. "0.3,0.4,0.5" (a single
//	                      value like "0.3" is a one-point list)
//
// scale converts the user unit into SI (1e-9 for a τ0 axis in ns, 1 for
// volts). The returned axis is validated.
func ParseAxisSpec(name, spec string, scale float64) (Axis, error) {
	if !strings.Contains(spec, ":") {
		var vals []float64
		for _, f := range strings.Split(spec, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return Axis{}, fmt.Errorf("axis %s: bad value %q", name, f)
			}
			vals = append(vals, v*scale)
		}
		a := ValuesAxis(name, vals...)
		return a, a.Validate()
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 && !(len(parts) == 4 && parts[3] == "log") {
		return Axis{}, fmt.Errorf("axis %s: want min:max:steps[:log] or a comma list, got %q", name, spec)
	}
	min, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return Axis{}, fmt.Errorf("axis %s: bad min %q", name, parts[0])
	}
	max, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return Axis{}, fmt.Errorf("axis %s: bad max %q", name, parts[1])
	}
	steps, err := strconv.Atoi(parts[2])
	if err != nil {
		return Axis{}, fmt.Errorf("axis %s: bad steps %q", name, parts[2])
	}
	a := LinAxis(name, min*scale, max*scale, steps)
	a.Log = len(parts) == 4
	return a, a.Validate()
}

// ParseSpaceSpec parses the three axis specs of a multiplier design space
// in the reporting units (τ0 in ns, voltages in V) into a validated Space.
func ParseSpaceSpec(tau0, vdac0, vdacfs string) (Space, error) {
	var sp Space
	var err error
	if sp.Tau0, err = ParseAxisSpec("tau0", tau0, 1e-9); err != nil {
		return Space{}, err
	}
	if sp.VDAC0, err = ParseAxisSpec("vdac0", vdac0, 1); err != nil {
		return Space{}, err
	}
	if sp.VDACFS, err = ParseAxisSpec("vdacfs", vdacfs, 1); err != nil {
		return Space{}, err
	}
	return sp, nil
}
