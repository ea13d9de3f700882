// Package wdm models a WDM (wavelength-division multiplexing) optical
// network layer over the digraph substrate and runs the full RWA pipeline
// the paper's introduction motivates: requests are routed to dipaths,
// dipaths are assigned wavelengths, and the provisioning either fits
// within the per-fiber wavelength capacity or reports how far it missed.
//
// It is deliberately at the modelling altitude of the paper: links carry
// W interchangeable wavelengths, no conversion, a request occupies one
// wavelength on every fiber along its route, and ADM (add-drop
// multiplexer) cost counts lightpath terminations.
package wdm

import (
	"fmt"

	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

// Network is an optical network: a DAG topology plus a uniform per-fiber
// wavelength capacity. Provision keeps nothing in the Network between
// calls: each call builds its own routing state, so concurrent Provision
// calls on one Network are safe while its Topology is not modified.
type Network struct {
	Topology    *digraph.Digraph
	Wavelengths int // capacity W of every fiber; 0 means unlimited
}

// RoutingPolicy selects how requests are converted to dipaths.
type RoutingPolicy int

// Routing policies.
const (
	RouteShortest RoutingPolicy = iota // BFS shortest dipaths
	RouteMinLoad                       // sequential min-max-load routing
	RouteUPP                           // unique dipaths (UPP-DAGs only)
)

func (p RoutingPolicy) String() string {
	switch p {
	case RouteShortest:
		return "shortest"
	case RouteMinLoad:
		return "min-load"
	case RouteUPP:
		return "upp"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Provisioning is the result of running the RWA pipeline.
type Provisioning struct {
	Paths       dipath.Family // route of each request, parallel to input
	Wavelengths []int         // wavelength of each request
	NumLambda   int           // wavelengths used in total
	Pi          int           // load of the routing
	Method      core.Method   // coloring algorithm that was applicable
	Feasible    bool          // NumLambda fits the network capacity
	// ADMs counts add-drop multiplexers as distinct (endpoint,
	// wavelength) lightpath terminations: lightpaths chaining through a
	// node on one wavelength share the ADM there.
	ADMs int
}

// Provision runs routing (per the policy's built-in strategy) then
// wavelength assignment (per the strongest applicable theorem) for the
// requests, in one pass: each request is routed against a load tracker
// of the paths routed before it and accounted; the family is then
// colored once, with π read off the tracker. UPP routing's paths are
// also checked against failed arcs and validated; shortest and min-load
// routing search live arcs only and assemble their paths from valid
// predecessor chains, so their paths skip both checks. The result
// equals that of a Session filled with the same requests whose live
// family is then colored once from scratch.
//
// Shortest and min-load routing carve the paths of one Provisioning
// from shared blocks (a dipath.Arena), so keeping any one of its paths
// keeps the whole plan's path storage alive.
func (n *Network) Provision(reqs []route.Request, policy RoutingPolicy) (*Provisioning, error) {
	g := n.Topology
	routing, err := policy.newState(g, new(dipath.Arena), reqs)
	if err != nil {
		return nil, fmt.Errorf("wdm: routing setup: %w", err)
	}
	tracker := load.NewTracker(g)
	fam := make(dipath.Family, len(reqs))
	for i, req := range reqs {
		p, err := routing.Route(req, tracker)
		if err != nil {
			return nil, fmt.Errorf("wdm: routing: %w", err)
		}
		if policy == RouteUPP {
			// UPP's unique routing is failure-blind: it can propose a path
			// over a cut fiber, which to the caller is no route.
			if crossesFailure(g, p) {
				return nil, fmt.Errorf("wdm: routing: %w", route.ErrNoRoute{Req: req})
			}
			if err := p.Validate(g); err != nil {
				return nil, fmt.Errorf("wdm: coloring: %w", err)
			}
		}
		tracker.Add(p)
		fam[i] = p
	}
	res, method, err := core.ColorDAGPrevalidated(g, fam)
	if err != nil {
		return nil, fmt.Errorf("wdm: wavelength assignment: %w", err)
	}
	return n.provisioning(fam, res.Colors, res.NumColors, tracker.Pi(), method), nil
}

// Assign runs only the wavelength-assignment half on pre-routed dipaths.
func (n *Network) Assign(fam dipath.Family) (*Provisioning, error) {
	res, method, err := core.ColorDAG(n.Topology, fam)
	if err != nil {
		return nil, fmt.Errorf("wdm: wavelength assignment: %w", err)
	}
	return n.provisioning(fam, res.Colors, res.NumColors, res.Pi, method), nil
}

// provisioning is the tail shared by Provision, Assign and the session
// and engine materialisers: it assembles a colored family into a
// Provisioning, counting its ADMs and checking it against the fiber
// capacity.
func (n *Network) provisioning(fam dipath.Family, colors []int, numLambda, pi int, method core.Method) *Provisioning {
	return &Provisioning{
		Paths:       fam,
		Wavelengths: colors,
		NumLambda:   numLambda,
		Pi:          pi,
		Method:      method,
		Feasible:    n.Wavelengths == 0 || numLambda <= n.Wavelengths,
		ADMs:        countADMs(fam, colors),
	}
}

// Utilization returns, per arc, the fraction of the capacity in use
// (load / W). With unlimited capacity the divisor is the number of
// wavelengths actually used.
func (n *Network) Utilization(p *Provisioning) []float64 {
	loads := load.ArcLoads(n.Topology, p.Paths)
	denom := n.Wavelengths
	if denom == 0 {
		denom = p.NumLambda
	}
	util := make([]float64, len(loads))
	if denom == 0 {
		return util
	}
	for a, l := range loads {
		util[a] = float64(l) / float64(denom)
	}
	return util
}

// LambdaPlan reports, for one wavelength, the arcs it occupies; the union
// over a wavelength's dipaths is arc-disjoint by construction. Dedup runs
// on a bitset over the dense arc identifiers, not a map.
func LambdaPlan(g *digraph.Digraph, p *Provisioning, lambda int) []digraph.ArcID {
	seen := make([]uint64, (g.NumArcs()+63)/64)
	var arcs []digraph.ArcID
	for i, path := range p.Paths {
		if p.Wavelengths[i] != lambda {
			continue
		}
		for _, a := range path.Arcs() {
			if seen[a/64]&(1<<(uint(a)%64)) == 0 {
				seen[a/64] |= 1 << (uint(a) % 64)
				arcs = append(arcs, a)
			}
		}
	}
	return arcs
}
