package classad

import (
	"fmt"
	"sort"

	"rsgen/internal/platform"
)

// Port is one slot of a Gangmatch request (§II.4.2.1): a label, a
// constraint that a candidate ad must satisfy (with the candidate bound to
// the label), and a rank for choosing among satisfying candidates.
type Port struct {
	Label      string
	Constraint Expr
	Rank       Expr
}

// PortsOf extracts the Ports attribute of a Gangmatch request ad: a list of
// nested ads each with Label, Constraint, and optional Rank.
func PortsOf(request *Ad) ([]Port, error) {
	e, ok := request.Get("Ports")
	if !ok {
		return nil, fmt.Errorf("classad: request has no Ports attribute")
	}
	v := e.Eval(&Env{Self: request})
	if v.Kind != ListKind {
		return nil, fmt.Errorf("classad: Ports is not a list")
	}
	var out []Port
	for i, pv := range v.List {
		if pv.Kind != AdKind || pv.AdVal == nil {
			return nil, fmt.Errorf("classad: Ports[%d] is not an ad", i)
		}
		pad := pv.AdVal
		p := Port{}
		if le, ok := pad.Get("Label"); ok {
			lv := le.Eval(&Env{Self: pad})
			switch lv.Kind {
			case String:
				p.Label = lv.Str
			default:
				// Bare identifiers parse as refs and evaluate
				// undefined; recover the label from the source form.
				p.Label = le.String()
			}
		}
		if p.Label == "" {
			return nil, fmt.Errorf("classad: Ports[%d] missing Label", i)
		}
		if ce, ok := pad.Get("Constraint"); ok {
			p.Constraint = ce
		}
		if re, ok := pad.Get("Rank"); ok {
			p.Rank = re
		}
		out = append(out, p)
	}
	return out, nil
}

// Gangmatch binds one candidate ad to every port of the request such that
// every port's constraint is satisfied with all current bindings visible
// under their labels (multilateral matching). Candidates are consumed at
// most once. Ports are filled in order, each greedily taking its
// highest-ranked satisfying candidate; on a dead end the search backtracks,
// so a complete gang is found whenever one exists.
func Gangmatch(request *Ad, candidates []*Ad) (map[string]*Ad, error) {
	ports, err := PortsOf(request)
	if err != nil {
		return nil, err
	}
	used := make([]bool, len(candidates))
	bindings := map[string]*Ad{}

	var fill func(i int) bool
	fill = func(i int) bool {
		if i == len(ports) {
			return true
		}
		p := ports[i]
		// Rank candidates for this port under current bindings.
		type cand struct {
			idx  int
			rank float64
		}
		var options []cand
		for ci, c := range candidates {
			if used[ci] {
				continue
			}
			labels := map[string]*Ad{}
			for l, ad := range bindings {
				labels[l] = ad
			}
			labels[normalizeLabel(p.Label)] = c
			env := &Env{Self: request, Labels: labels}
			if p.Constraint != nil && !p.Constraint.Eval(env).IsTrue() {
				continue
			}
			rank := 0.0
			if p.Rank != nil {
				if n, ok := p.Rank.Eval(env).AsNumber(); ok {
					rank = n
				}
			}
			options = append(options, cand{idx: ci, rank: rank})
		}
		sort.Slice(options, func(a, b int) bool {
			if options[a].rank != options[b].rank {
				return options[a].rank > options[b].rank
			}
			return options[a].idx < options[b].idx
		})
		label := normalizeLabel(p.Label)
		prev, hadPrev := bindings[label]
		for _, o := range options {
			used[o.idx] = true
			bindings[label] = candidates[o.idx]
			if fill(i + 1) {
				return true
			}
			used[o.idx] = false
		}
		if hadPrev {
			bindings[label] = prev
		} else {
			delete(bindings, label)
		}
		return false
	}
	if !fill(0) {
		return nil, fmt.Errorf("classad: gangmatch unsatisfiable: no gang of %d candidates satisfies all ports", len(ports))
	}
	// Re-key by the ports' original labels (last binding wins when ports
	// share a label, which the Fig. II-2 example does).
	out := map[string]*Ad{}
	for _, p := range ports {
		out[normalizeLabel(p.Label)] = bindings[normalizeLabel(p.Label)]
	}
	return out, nil
}

func normalizeLabel(l string) string {
	// Labels are case-insensitive like attribute names.
	b := make([]byte, len(l))
	for i := 0; i < len(l); i++ {
		c := l[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}

// MachineAd builds a workstation advertisement (Fig. II-3) for one platform
// host: static attributes from the host plus the conventional dynamic ones
// (Activity/State idle, low load). Every attribute but Name is a function of
// the host's clock and memory, and none refers to another ad: MatchHosts
// rests on both.
func MachineAd(h platform.Host, name string) *Ad {
	ad := NewAd()
	ad.SetStr("Type", "Machine")
	ad.SetStr("Name", name)
	ad.SetStr("Arch", "INTEL")
	ad.SetStr("OpSys", "LINUX")
	setHostAttrs(ad, h)
	ad.SetStr("State", "Unclaimed")
	ad.SetStr("Activity", "Idle")
	ad.SetNum("LoadAvg", 0.05)
	ad.SetNum("KeyboardIdle", 3600)
	ad.SetNum("Disk", 100_000_000)
	ad.Set("Requirements", machineRequirements)
	return ad
}

// machineRequirements is every machine ad's Requirements; expressions are
// immutable, so the ads share one. The source is a constant that parses.
var machineRequirements, _ = ParseExpr("LoadAvg <= 0.3 && KeyboardIdle > 15*60")

// setHostAttrs sets the attributes MachineAd derives from the host's clock
// and memory.
func setHostAttrs(ad *Ad, h platform.Host) {
	ad.SetNum("Memory", float64(h.MemoryMB))
	ad.SetNum("Clock", h.ClockGHz*1000) // MHz, matching vgDL's convention
	// KFlops per Condor convention: a rough clock-proportional estimate.
	ad.SetNum("KFlops", h.ClockGHz*400_000)
	ad.SetNum("Mips", h.ClockGHz*1000)
}

// hostName is the Name MachineAds advertises host i under.
func hostName(i int, h platform.Host) string {
	return fmt.Sprintf("host%05d.cluster%04d", i, h.Cluster)
}

// MachineAds advertises every host of a platform. MatchHosts gives the
// matching result without building them; this is its reference.
func MachineAds(p *platform.Platform) []*Ad {
	out := make([]*Ad, p.NumHosts())
	for i, h := range p.Hosts {
		out[i] = MachineAd(h, hostName(i, h))
	}
	return out
}
