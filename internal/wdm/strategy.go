package wdm

import (
	"fmt"
	"sort"
	"sync"

	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/route"
	"wavedag/internal/upp"
)

// RoutingStrategy converts requests into dipaths. A strategy is a
// factory: NewState builds the per-session persistent routing state
// (reusable routers, precomputed tables), so repeated requests on one
// session never pay setup again. Strategies are looked up by name in a
// registry; the legacy RoutingPolicy constants resolve to the built-in
// entries ("shortest", "min-load", "upp").
type RoutingStrategy interface {
	// Name is the registry key; it must be non-empty and unique.
	Name() string
	// NewState builds routing state bound to g. It may fail when the
	// strategy's preconditions do not hold (e.g. UPP routing on a
	// non-UPP digraph).
	NewState(g *digraph.Digraph) (RoutingState, error)
}

// RoutingState is per-session routing state. Route picks a dipath for
// req; loads is the session's live load tracker, which load-aware
// strategies consult (and must NOT mutate — the session accounts the
// chosen path itself).
type RoutingState interface {
	Route(req route.Request, loads *load.Tracker) (*dipath.Path, error)
}

// ColoringStrategy maintains the wavelength assignment of a session's
// live dipaths. Like RoutingStrategy it is a registry-named factory;
// the built-ins are "incremental" (first-fit + bounded repair +
// slack-gated full recolor, the dynamic engine) and "full" (defer all
// coloring to one from-scratch ColorDAG run).
type ColoringStrategy interface {
	// Name is the registry key; it must be non-empty and unique.
	Name() string
	// NewState builds coloring state bound to g. slack is the drift
	// allowance for incremental maintenance (<= 0 selects the default);
	// strategies that recompute from scratch may ignore it.
	NewState(g *digraph.Digraph, slack int) (ColoringState, error)
}

// ColoringState tracks the live dipaths in slots (dense ints assigned
// by Add and recycled by Remove) and answers wavelength queries.
type ColoringState interface {
	// Add inserts p and returns its slot.
	Add(p *dipath.Path) (int, error)
	// Remove deletes the dipath in slot s.
	Remove(s int) error
	// Wavelength returns the wavelength of slot s, or -1 when the
	// strategy defers assignment until Assignment is called.
	Wavelength(s int) int
	// NumLambda returns the number of wavelengths in use. Deferred
	// strategies may recompute from scratch here (document the cost).
	NumLambda() (int, error)
	// Assignment returns the final wavelengths for the given slots
	// (parallel to slots; fam holds the same slots' dipaths in the same
	// order), the wavelength count, and the method that produced them.
	Assignment(slots []int, fam dipath.Family) ([]int, int, core.Method, error)
}

// ── Registries ─────────────────────────────────────────────────────────

var (
	registryMu         sync.RWMutex
	routingStrategies  = map[string]RoutingStrategy{}
	coloringStrategies = map[string]ColoringStrategy{}
)

// RegisterRoutingStrategy adds s to the routing registry; registering a
// nil strategy, an empty name, or a duplicate name fails.
func RegisterRoutingStrategy(s RoutingStrategy) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("wdm: routing strategy must be non-nil with a non-empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := routingStrategies[s.Name()]; dup {
		return fmt.Errorf("wdm: routing strategy %q already registered", s.Name())
	}
	routingStrategies[s.Name()] = s
	return nil
}

// LookupRoutingStrategy returns the registered routing strategy named
// name.
func LookupRoutingStrategy(name string) (RoutingStrategy, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := routingStrategies[name]
	return s, ok
}

// RoutingStrategyNames returns the registered routing strategy names,
// sorted.
func RoutingStrategyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(routingStrategies))
	for n := range routingStrategies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterColoringStrategy adds s to the coloring registry; registering
// a nil strategy, an empty name, or a duplicate name fails.
func RegisterColoringStrategy(s ColoringStrategy) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("wdm: coloring strategy must be non-nil with a non-empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := coloringStrategies[s.Name()]; dup {
		return fmt.Errorf("wdm: coloring strategy %q already registered", s.Name())
	}
	coloringStrategies[s.Name()] = s
	return nil
}

// LookupColoringStrategy returns the registered coloring strategy named
// name.
func LookupColoringStrategy(name string) (ColoringStrategy, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := coloringStrategies[name]
	return s, ok
}

// ColoringStrategyNames returns the registered coloring strategy names,
// sorted.
func ColoringStrategyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(coloringStrategies))
	for n := range coloringStrategies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Strategy resolves the legacy policy constant to its registered
// strategy — the RoutingPolicy switch of earlier versions, turned into
// a registry lookup.
func (p RoutingPolicy) Strategy() (RoutingStrategy, error) {
	s, ok := LookupRoutingStrategy(p.String())
	if !ok {
		return nil, fmt.Errorf("wdm: unknown routing policy %v", p)
	}
	return s, nil
}

func init() {
	for _, s := range []RoutingStrategy{
		shortestStrategy{}, minLoadStrategy{}, uppStrategy{},
	} {
		if err := RegisterRoutingStrategy(s); err != nil {
			panic(err)
		}
	}
	for _, s := range []ColoringStrategy{
		incrementalColoring{}, fullColoring{},
	} {
		if err := RegisterColoringStrategy(s); err != nil {
			panic(err)
		}
	}
}

// ── Built-in routing strategies ────────────────────────────────────────

// planStrategy is implemented by the built-in strategies whose routes a
// one-shot plan can carve from one dipath.Arena. Provision owns every
// path it routes until it returns them together, so they share one
// lifetime; a session frees paths one by one and keeps NewState's
// per-path allocation, so that a surviving path never pins a block.
type planStrategy interface {
	newPlanState(g *digraph.Digraph, arena *dipath.Arena) RoutingState
}

// shortestStrategy routes by BFS shortest dipath through a persistent
// route.Router.
type shortestStrategy struct{}

func (shortestStrategy) Name() string { return RouteShortestName }

func (s shortestStrategy) NewState(g *digraph.Digraph) (RoutingState, error) {
	return s.newPlanState(g, nil), nil
}

func (shortestStrategy) newPlanState(g *digraph.Digraph, arena *dipath.Arena) RoutingState {
	return &shortestState{route.NewRouter(g), arena}
}

// shortestState carves its routes from arena, or allocates each on its
// own when arena is nil.
type shortestState struct {
	r     *route.Router
	arena *dipath.Arena
}

func (s *shortestState) Route(req route.Request, _ *load.Tracker) (*dipath.Path, error) {
	return s.r.ShortestPathIn(req.Src, req.Dst, s.arena)
}

// minLoadStrategy routes each request to minimise the resulting maximum
// arc load against the session's live tracker (then hop count).
type minLoadStrategy struct{}

func (minLoadStrategy) Name() string { return RouteMinLoadName }

func (s minLoadStrategy) NewState(g *digraph.Digraph) (RoutingState, error) {
	return s.newPlanState(g, nil), nil
}

func (minLoadStrategy) newPlanState(g *digraph.Digraph, arena *dipath.Arena) RoutingState {
	return &minLoadState{route.NewRouter(g), arena}
}

// minLoadState carves its routes from arena, or allocates each on its
// own when arena is nil.
type minLoadState struct {
	r     *route.Router
	arena *dipath.Arena
}

func (s *minLoadState) Route(req route.Request, loads *load.Tracker) (*dipath.Path, error) {
	return s.r.MinLoadPathIn(req, loads, s.arena)
}

// uppStrategy routes on UPP-DAGs, where every request has at most one
// dipath; state construction fails on non-UPP digraphs.
type uppStrategy struct{}

func (uppStrategy) Name() string { return RouteUPPName }

func (uppStrategy) NewState(g *digraph.Digraph) (RoutingState, error) {
	r, err := upp.NewRouter(g)
	if err != nil {
		return nil, err
	}
	return uppState{r}, nil
}

type uppState struct{ r *upp.Router }

func (s uppState) Route(req route.Request, _ *load.Tracker) (*dipath.Path, error) {
	p, ok := s.r.Route(req.Src, req.Dst)
	if !ok {
		return nil, route.ErrNoRoute{Req: req}
	}
	return p, nil
}

// ── Built-in coloring strategies ───────────────────────────────────────

// ColoringIncremental and ColoringFull are the names of the built-in
// coloring strategies.
//
//wavedag:registry RegisterColoringStrategy
const (
	ColoringIncremental = "incremental"
	ColoringFull        = "full"
)

// incrementalColoring maintains wavelengths online via core.Incremental:
// every Add first-fit colors against the mutable conflict graph, every
// Remove runs a bounded local repair, and a full recolor happens only
// when the assignment drifts past the slack gate.
type incrementalColoring struct{}

func (incrementalColoring) Name() string { return ColoringIncremental }

func (incrementalColoring) NewState(g *digraph.Digraph, slack int) (ColoringState, error) {
	return &incrementalState{ic: core.NewIncremental(g, slack)}, nil
}

type incrementalState struct{ ic *core.Incremental }

func (s *incrementalState) Add(p *dipath.Path) (int, error) { return s.ic.Add(p) }
func (s *incrementalState) Remove(slot int) error           { return s.ic.Remove(slot) }
func (s *incrementalState) Wavelength(slot int) int         { return s.ic.Wavelength(slot) }
func (s *incrementalState) NumLambda() (int, error)         { return s.ic.NumLambda(), nil }

func (s *incrementalState) Assignment(slots []int, _ dipath.Family) ([]int, int, core.Method, error) {
	return s.ic.Colors(slots), s.ic.NumLambda(), core.MethodIncremental, nil
}

// Incremental exposes the underlying colorer (stats, lower bound).
func (s *incrementalState) Incremental() *core.Incremental { return s.ic }

// AddUnderLimit and EnsureAtMost implement BudgetedColoringState — the
// exact-rollback admission probe and the post-mutation λ enforcement
// the budgeted session drives.
func (s *incrementalState) AddUnderLimit(p *dipath.Path, limit int) (int, bool, error) {
	return s.ic.AddUnderLimit(p, limit)
}

func (s *incrementalState) EnsureAtMost(limit int) int { return s.ic.EnsureAtMost(limit) }

// ForEachSlotOnArc implements ArcIncidenceState through the conflict
// layer's per-arc incidence, so FailArc finds the paths hit by a cut in
// O(affected).
func (s *incrementalState) ForEachSlotOnArc(a digraph.ArcID, f func(slot int)) {
	s.ic.Dynamic().ForEachOnArc(a, f)
}

// GrowArcs implements the optional arc-growth hook a live AddArc drives
// through Session.growTopology: the conflict layer's arc incidence
// extends to the grown topology. States without per-arc structure (the
// deferred full strategy) simply lack the method.
func (s *incrementalState) GrowArcs(n int) { s.ic.GrowArcs(n) }

// fullColoring defers all wavelength assignment to a from-scratch
// ColorDAG run: Add and Remove only track the live set, and Assignment
// (or NumLambda) runs the strongest applicable theorem on the snapshot.
// It is the rebuild-from-scratch baseline the dynamic engine is
// measured against; a session using it yields what one-shot Provision
// computes directly.
type fullColoring struct{}

func (fullColoring) Name() string { return ColoringFull }

func (fullColoring) NewState(g *digraph.Digraph, _ int) (ColoringState, error) {
	return &fullState{g: g}, nil
}

type fullState struct {
	g     *digraph.Digraph
	paths []*dipath.Path // slot -> path; nil = free
	free  []int
	live  int
}

func (s *fullState) Add(p *dipath.Path) (int, error) {
	if p == nil {
		return -1, fmt.Errorf("wdm: nil dipath")
	}
	// Validate on entry (exactly as the incremental strategy's conflict
	// layer does): every path the state holds is then a known-good dipath
	// of g, and Assignment can run the prevalidated coloring dispatch
	// instead of re-walking the whole family per call.
	if err := p.Validate(s.g); err != nil {
		return -1, err
	}
	var slot int
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.paths[slot] = p
	} else {
		slot = len(s.paths)
		s.paths = append(s.paths, p)
	}
	s.live++
	return slot, nil
}

func (s *fullState) Remove(slot int) error {
	if slot < 0 || slot >= len(s.paths) || s.paths[slot] == nil {
		return fmt.Errorf("wdm: slot %d is not live", slot)
	}
	s.paths[slot] = nil
	s.free = append(s.free, slot)
	s.live--
	return nil
}

func (s *fullState) Wavelength(int) int { return -1 } // deferred

// NumLambda recomputes from scratch — O(full pipeline), which is
// exactly the cost profile the incremental strategy exists to avoid.
func (s *fullState) NumLambda() (int, error) {
	fam := make(dipath.Family, 0, s.live)
	for _, p := range s.paths {
		if p != nil {
			fam = append(fam, p)
		}
	}
	res, _, err := core.ColorDAGPrevalidated(s.g, fam)
	if err != nil {
		return 0, err
	}
	return res.NumColors, nil
}

func (s *fullState) Assignment(_ []int, fam dipath.Family) ([]int, int, core.Method, error) {
	res, method, err := core.ColorDAGPrevalidated(s.g, fam)
	if err != nil {
		return nil, 0, "", err
	}
	return res.Colors, res.NumColors, method, nil
}
