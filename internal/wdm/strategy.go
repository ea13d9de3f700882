package wdm

import (
	"fmt"
	"sort"
	"sync"

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
// chosen path itself). A revival sweep may skip Route for a dark entry
// that has no live dipath: no route it could propose would be lit.
type RoutingState interface {
	Route(req route.Request, loads *load.Tracker) (*dipath.Path, error)
}

// ── Registries ─────────────────────────────────────────────────────────

var (
	registryMu        sync.RWMutex
	routingStrategies = map[string]RoutingStrategy{}
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
}

// ── Built-in routing strategies ────────────────────────────────────────

// planStrategy is implemented by the built-in strategies whose routes a
// one-shot plan can carve from one dipath.Arena. Provision owns every
// path it routes until it returns them together, so they share one
// lifetime; a session frees paths one by one and keeps NewState's
// per-path allocation, so that a surviving path never pins a block.
// The plan state is handed the whole batch up front, so its router
// builds the batch's ancestor sets together (route.Router.PrimeAncestors);
// NewState passes none.
type planStrategy interface {
	newPlanState(g *digraph.Digraph, arena *dipath.Arena, reqs []route.Request) RoutingState
}

// shortestStrategy routes by BFS shortest dipath through a persistent
// route.Router.
type shortestStrategy struct{}

func (shortestStrategy) Name() string { return RouteShortestName }

func (s shortestStrategy) NewState(g *digraph.Digraph) (RoutingState, error) {
	return s.newPlanState(g, nil, nil), nil
}

func (shortestStrategy) newPlanState(g *digraph.Digraph, arena *dipath.Arena, reqs []route.Request) RoutingState {
	r := route.NewRouter(g)
	r.PrimeAncestors(reqs)
	return &shortestState{r, arena}
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
	return s.newPlanState(g, nil, nil), nil
}

func (minLoadStrategy) newPlanState(g *digraph.Digraph, arena *dipath.Arena, reqs []route.Request) RoutingState {
	r := route.NewRouter(g)
	r.PrimeAncestors(reqs)
	return &minLoadState{r, arena}
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
