package wdm

import (
	"fmt"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/route"
	"wavedag/internal/upp"
)

// RoutingStrategy converts requests into dipaths. A strategy is a
// factory: NewState builds the per-session persistent routing state
// (reusable routers, precomputed tables), so repeated requests on one
// session never pay setup again. Every RoutingPolicy constant is itself
// a RoutingStrategy value: the built-in shortest, min-load and UPP
// routing.
type RoutingStrategy interface {
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

// Strategy returns the built-in routing strategy of the policy: the
// policy value itself, or an error when p names no built-in policy.
func (p RoutingPolicy) Strategy() (RoutingStrategy, error) {
	switch p {
	case RouteShortest, RouteMinLoad, RouteUPP:
		return p, nil
	}
	return nil, fmt.Errorf("wdm: unknown routing policy %v", p)
}

// NewState builds the policy's routing state for a session: each path
// it routes is allocated on its own, so that a surviving path never
// pins a block.
func (p RoutingPolicy) NewState(g *digraph.Digraph) (RoutingState, error) {
	return p.newState(g, nil, nil)
}

// newState builds the policy's routing state. The shortest and min-load
// states carve their routes from arena (each is allocated on its own
// when arena is nil) and their router builds the ancestor sets of reqs
// together up front (route.Router.PrimeAncestors): Provision owns every
// path it routes until it returns them together, so they share one
// lifetime.
func (p RoutingPolicy) newState(g *digraph.Digraph, arena *dipath.Arena, reqs []route.Request) (RoutingState, error) {
	switch p {
	case RouteShortest, RouteMinLoad:
		r := route.NewRouter(g)
		r.PrimeAncestors(reqs)
		if p == RouteShortest {
			return &shortestState{r, arena}, nil
		}
		return &minLoadState{r, arena}, nil
	case RouteUPP:
		r, err := upp.NewRouter(g)
		if err != nil {
			return nil, err
		}
		return uppState{r}, nil
	}
	return nil, fmt.Errorf("wdm: unknown routing policy %v", p)
}

// shortestState routes by BFS shortest dipath through a persistent
// route.Router.
type shortestState struct {
	r     *route.Router
	arena *dipath.Arena
}

func (s *shortestState) Route(req route.Request, _ *load.Tracker) (*dipath.Path, error) {
	return s.r.ShortestPathIn(req.Src, req.Dst, s.arena)
}

// minLoadState routes each request to minimise the resulting maximum
// arc load against the session's live tracker (then hop count).
type minLoadState struct {
	r     *route.Router
	arena *dipath.Arena
}

func (s *minLoadState) Route(req route.Request, loads *load.Tracker) (*dipath.Path, error) {
	return s.r.MinLoadPathIn(req, loads, s.arena)
}

// uppState routes on UPP-DAGs, where every request has at most one
// dipath; building it fails on non-UPP digraphs.
type uppState struct{ r *upp.Router }

func (s uppState) Route(req route.Request, _ *load.Tracker) (*dipath.Path, error) {
	p, ok := s.r.Route(req.Src, req.Dst)
	if !ok {
		return nil, route.ErrNoRoute{Req: req}
	}
	return p, nil
}
