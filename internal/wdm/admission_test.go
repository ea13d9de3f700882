package wdm

// Budgeted admission tests: the Theorem-1 precheck on cycle-free
// topologies, the color-then-rollback probe on general DAGs, the three
// built-in admission strategies, and the budgeted engines (plain and
// sharded/two-level) under randomized churn — the λ ≤ w acceptance
// criteria of the admission-control work.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

// diamond builds s -> {a, b} -> t: two arc-disjoint routes between the
// single source and sink, no internal cycle (the one undirected cycle
// passes through both).
func diamond(t *testing.T) (*digraph.Digraph, [4]digraph.Vertex) {
	t.Helper()
	g := digraph.New(4)
	const s, a, b, tt = 0, 1, 2, 3
	g.MustAddArc(s, a)
	g.MustAddArc(a, tt)
	g.MustAddArc(s, b)
	g.MustAddArc(b, tt)
	return g, [4]digraph.Vertex{s, a, b, tt}
}

func TestBudgetedSessionRejects(t *testing.T) {
	g, v := diamond(t)
	net := &Network{Topology: g}
	sess, err := net.NewSession(WithWavelengthBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Budget() != 1 || sess.admission != AdmissionState(rejectState{}) {
		t.Fatalf("budget %d admission %#v", sess.Budget(), sess.admission)
	}
	// Saturate the s->a->t route explicitly.
	p := dipath.MustFromVertices(g, v[0], v[1], v[3])
	if _, adm, err := sess.TryAddPath(p); err != nil || !adm.Accepted {
		t.Fatalf("first offer: %+v %v", adm, err)
	}
	// The same path again is over budget: TryAddPath reports rejection
	// without an error, Add wraps ErrBudgetExceeded, and neither touches
	// any state.
	if _, adm, err := sess.TryAddPath(p); err != nil || adm.Accepted {
		t.Fatalf("over-budget offer: %+v %v", adm, err)
	}
	if sess.Len() != 1 || sess.Pi() != 1 {
		t.Fatalf("rejection mutated state: len %d π %d", sess.Len(), sess.Pi())
	}
	// Shortest routing picks s->a->t (arc order), so a routed Add hits
	// the saturated route and must fail with the sentinel.
	if _, err := sess.Add(route.Request{Src: v[0], Dst: v[3]}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Add returned %v, want ErrBudgetExceeded", err)
	}
	st := sess.AdmissionStats()
	if st.Requests != 3 || st.Accepted != 1 || st.Rejected != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRetryAltRouteRecovers(t *testing.T) {
	g, v := diamond(t)
	net := &Network{Topology: g}
	sess, err := net.NewSession(
		WithWavelengthBudget(1),
		WithAdmissionStrategy(AdmissionRetryAltRoute),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, adm, err := sess.TryAddPath(dipath.MustFromVertices(g, v[0], v[1], v[3])); err != nil || !adm.Accepted {
		t.Fatalf("first offer: %+v %v", adm, err)
	}
	// The shortest route is saturated; the strategy's min-load router
	// must recover the request through s->b->t.
	id, adm, err := sess.TryAdd(route.Request{Src: v[0], Dst: v[3]})
	if err != nil || !adm.Accepted || !adm.Retried {
		t.Fatalf("retry offer: %+v %v", adm, err)
	}
	p, err := sess.Path(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumArcs() != 2 || p.Vertices()[1] != v[2] {
		t.Fatalf("recovered path %v does not ride the alternate branch", p)
	}
	if n, err := sess.NumLambda(); err != nil || n > 1 {
		t.Fatalf("λ=%d past the budget (%v)", n, err)
	}
	// Both branches full: a third request has no alternative left.
	if _, adm, err := sess.TryAdd(route.Request{Src: v[0], Dst: v[3]}); err != nil || adm.Accepted {
		t.Fatalf("exhausted offer: %+v %v", adm, err)
	}
	st := sess.AdmissionStats()
	if st.Retried != 1 || st.Rejected != 1 || st.Accepted != 2 {
		t.Fatalf("stats %+v", st)
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDegradeAcceptsBestEffort(t *testing.T) {
	g, v := diamond(t)
	net := &Network{Topology: g}
	sess, err := net.NewSession(
		WithWavelengthBudget(1),
		WithAdmissionStrategy(AdmissionDegrade),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := dipath.MustFromVertices(g, v[0], v[1], v[3])
	if _, adm, err := sess.TryAddPath(p); err != nil || !adm.Accepted || adm.BestEffort {
		t.Fatalf("first offer: %+v %v", adm, err)
	}
	id, adm, err := sess.TryAddPath(p)
	if err != nil || !adm.Accepted || !adm.BestEffort {
		t.Fatalf("degraded offer: %+v %v", adm, err)
	}
	if be, err := sess.IsBestEffort(id); err != nil || !be {
		t.Fatalf("IsBestEffort = %v, %v", be, err)
	}
	if sess.BestEffortLive() != 1 {
		t.Fatalf("BestEffortLive = %d", sess.BestEffortLive())
	}
	// Best-effort traffic rides past the budget: λ exceeds it, but the
	// assignment stays proper and the stats report the excess separately.
	if n, err := sess.NumLambda(); err != nil || n != 2 {
		t.Fatalf("λ=%d, want 2 (%v)", n, err)
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Remove(id); err != nil {
		t.Fatal(err)
	}
	if sess.BestEffortLive() != 0 {
		t.Fatalf("BestEffortLive = %d after teardown", sess.BestEffortLive())
	}
	st := sess.AdmissionStats()
	if st.BestEffort != 1 || st.Rejected != 0 || st.Accepted != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBudgetedReroute pins the budget gate on the reroute path: a
// reroute whose new path would break the budget keeps the old route.
func TestBudgetedReroute(t *testing.T) {
	g, v := diamond(t)
	net := &Network{Topology: g}
	sess, err := net.NewSession(
		WithWavelengthBudget(1),
		WithRoutingPolicy(RouteMinLoad),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy s->a->t, then pin a second request onto s->b->t.
	idA, adm, err := sess.TryAddPath(dipath.MustFromVertices(g, v[0], v[1], v[3]))
	if err != nil || !adm.Accepted {
		t.Fatalf("%+v %v", adm, err)
	}
	idB, adm, err := sess.TryAddPath(dipath.MustFromVertices(g, v[0], v[2], v[3]))
	if err != nil || !adm.Accepted {
		t.Fatalf("%+v %v", adm, err)
	}
	_ = idA
	// Rerouting B sees both branches at load 1 (its own excluded): the
	// min-load route ties back to its own branch or the other; either
	// way the budget holds and the session stays consistent.
	if _, err := sess.Reroute(idB); err != nil {
		t.Fatal(err)
	}
	if n, err := sess.NumLambda(); err != nil || n > 1 {
		t.Fatalf("λ=%d past budget (%v)", n, err)
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
}

// ── Sharded engine budgets ─────────────────────────────────────────────

func TestBudgetedEngineUnbandableBudget(t *testing.T) {
	g := opsFixture(t, opsFixtureID(opsGlued, 3, 16, opsEnds3), 191)
	net := &Network{Topology: g}
	// Budget 1 cannot split into a region band and an overlay band.
	if _, err := net.NewShardedEngine(
		WithEngineWavelengthBudget(1), WithSubshardThreshold(16),
	); err == nil {
		t.Fatal("budget 1 accepted on a two-level layout")
	}
	// The same budget runs single-level.
	eng, err := net.NewShardedEngine(
		WithEngineWavelengthBudget(1), WithSubshardThreshold(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
}

// TestBudgetedEngineMixedLayout pins per-lane budgets on an engine that
// holds both layouts: a giant component with region lanes plus a small
// satellite without them. The satellite's overlay lane admits against
// the full budget w (not the overlay slice), is counted in Stats().Plain,
// and stays out of the OverlayLive and OverlayLambda aggregates.
func TestBudgetedEngineMixedLayout(t *testing.T) {
	giant := opsFixture(t, opsFixtureID(opsGlued, 3, 16, opsEnds3), 231)
	satellite, err := gen.RandomNoInternalCycleDAG(4, 1, 1, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := gen.DisjointUnion(gen.Instance{G: giant}, gen.Instance{G: satellite})
	const w = 8 // overlay slice w/4 = 2
	eng, err := (&Network{Topology: topo}).NewShardedEngine(
		WithSubshardThreshold(16), WithEngineWavelengthBudget(w))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if st := eng.Stats(); st.Components != 2 || st.TwoLevel != 1 {
		t.Fatalf("layout: %+v, want 2 components with 1 two-level", st)
	}

	// One cross-region request on the giant, and a satellite request
	// with at least one arc, so its copies stack load on the same arcs.
	regions := giant.PartitionRegions()
	giantN := digraph.Vertex(giant.NumVertices())
	var cross, sat route.Request
	haveCross, haveSat := false, false
	for _, req := range route.NewRouter(topo).AllToAll() {
		switch {
		case req.Src < giantN && req.Dst < giantN:
			if _, _, _, ok := regions.CommonRegion(req.Src, req.Dst); !ok && !haveCross {
				cross, haveCross = req, true
			}
		case req.Src >= giantN && req.Dst >= giantN && req.Src != req.Dst && !haveSat:
			sat, haveSat = req, true
		}
	}
	if !haveCross || !haveSat {
		t.Fatalf("fixture: cross-region=%v satellite=%v", haveCross, haveSat)
	}
	if _, err := eng.Add(cross); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w; i++ {
		if _, err := eng.Add(sat); err != nil {
			t.Fatalf("satellite copy %d: %v (want accepted under the full budget %d)", i+1, err, w)
		}
	}
	if _, err := eng.Add(sat); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("satellite copy %d: got %v, want ErrBudgetExceeded", w+1, err)
	}

	st := eng.Stats()
	if st.Plain.Requests != w+1 || st.Plain.Accepted != w || st.Plain.Rejected != 1 || st.Plain.Live != w {
		t.Fatalf("Plain lane stats %+v, want the satellite's %d offers, %d accepted, 1 rejected", st.Plain, w+1, w)
	}
	if st.Overlay.Accepted != 1 || st.OverlayLive != 1 {
		t.Fatalf("overlay stats: Overlay=%+v OverlayLive=%d, want only the giant's one request", st.Overlay, st.OverlayLive)
	}
	if n, err := eng.OverlayLambda(); err != nil || n != 1 {
		t.Fatalf("OverlayLambda = %d (%v), want 1 (the satellite's λ must not count)", n, err)
	}
	if n, err := eng.NumLambda(); err != nil || n != w {
		t.Fatalf("NumLambda = %d (%v), want %d (the satellite's copies)", n, err, w)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchIntoReuse pins the pooled-results contract: the buffer
// is reused when it fits, stale entries are cleared, and results match
// a fresh allocation.
func TestApplyBatchIntoReuse(t *testing.T) {
	g := opsFixture(t, opsFixtureID(opsUnion, 2, 12, opsEnds4), 201)
	net := &Network{Topology: g}
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(g).AllToAll()
	ops := make([]BatchOp, 8)
	for i := range ops {
		ops[i] = AddOp(pool[i%len(pool)])
	}
	results := eng.ApplyBatchInto(ops, nil)
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// Reuse with a smaller batch: the slice must shrink, keep its
	// backing array, and carry no stale ids/errors.
	small := []BatchOp{RemoveOp(results[0].ID), RemoveOp(results[1].ID)}
	reused := eng.ApplyBatchInto(small, results)
	if len(reused) != 2 {
		t.Fatalf("len %d, want 2", len(reused))
	}
	if &reused[0] != &results[0] {
		t.Fatal("buffer was not reused")
	}
	for i, res := range reused {
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
		if res.ID != small[i].ID {
			t.Fatalf("op %d: stale result id %+v", i, res.ID)
		}
	}
}

// TestBudgetedEngineConcurrentBatches stresses the budgeted fan-out:
// concurrent ApplyBatch callers on a budgeted two-level engine must
// stay race-free and leave a consistent, within-budget state (run under
// -race -cpu=1,4 in CI).
func TestBudgetedEngineConcurrentBatches(t *testing.T) {
	g := opsFixture(t, opsFixtureID(opsGlued, 3, 16, opsEnds3), 211)
	const w = 4
	net := &Network{Topology: g}
	eng, err := net.NewShardedEngine(
		WithEngineWavelengthBudget(w), WithSubshardThreshold(16), WithShardWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(g).AllToAll()
	done := make(chan error, 4)
	for gor := 0; gor < 4; gor++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			var ids []ShardedID
			for iter := 0; iter < 40; iter++ {
				ops := make([]BatchOp, 0, 24)
				for len(ops) < cap(ops) {
					ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
				}
				for _, res := range eng.ApplyBatch(ops) {
					if res.Err == nil {
						ids = append(ids, res.ID)
					} else if !errors.Is(res.Err, ErrBudgetExceeded) {
						done <- res.Err
						return
					}
				}
				for len(ids) > 12 {
					if err := eng.Remove(ids[len(ids)-1]); err != nil {
						done <- err
						return
					}
					ids = ids[:len(ids)-1]
				}
			}
			done <- nil
		}(int64(221 + gor))
	}
	for gor := 0; gor < 4; gor++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n, err := eng.NumLambda(); err != nil || n > w {
		t.Fatalf("λ=%d past budget (%v)", n, err)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAdmissionChurn prices a rejection on the blocking-probability
// workload (a hotspot-concentrated overload trace on a DAG without
// internal cycle): the Theorem-1 load precheck against the
// color-and-rollback probe it replaces, both refusing the same request
// across a saturated arc. The session and sharded-engine halves of the
// workload are the root package's BenchmarkAdmissionChurn.
func BenchmarkAdmissionChurn(b *testing.B) {
	topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
	if err != nil {
		b.Fatal(err)
	}
	pairs := gen.HotspotRequestPool(topo, 10, 0.7, 2000, 17)
	pool := make([]route.Request, len(pairs))
	for i, p := range pairs {
		pool[i] = route.Request{Src: p[0], Dst: p[1]}
	}
	for _, probe := range []struct {
		name string
		opts []SessionOption
	}{
		{"reject-precheck", nil},
		{"reject-rollback", []SessionOption{withAdmissionRollbackProbe()}},
	} {
		b.Run(probe.name, func(b *testing.B) {
			net := &Network{Topology: topo}
			s, err := net.NewSession(append([]SessionOption{
				WithWavelengthBudget(3)}, probe.opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				if _, _, err := s.TryAdd(pool[(i*31)%len(pool)]); err != nil {
					b.Fatal(err)
				}
			}
			// A probe crossing a saturated arc: both admission paths must
			// reject it every iteration without mutating the session.
			probeReq, found := route.SaturatedRequest(topo, s.ArcLoadsInto(nil), pool, 3)
			if !found {
				b.Fatal("no saturated probe found")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, adm, err := s.TryAdd(probeReq); err != nil {
					b.Fatal(err)
				} else if adm.Accepted {
					b.Fatal("saturated probe accepted")
				}
			}
		})
	}
}

// foreignRouting routes like the shortest strategy until *on is set,
// then proposes p, a dipath of another digraph whose arc ids lie
// outside the session's graph.
type foreignRouting struct {
	on *bool
	p  *dipath.Path
}

func (f foreignRouting) NewState(g *digraph.Digraph) (RoutingState, error) {
	inner, err := RouteShortest.NewState(g)
	if err != nil {
		return nil, err
	}
	return &foreignState{inner, f}, nil
}

type foreignState struct {
	inner RoutingState
	f     foreignRouting
}

func (s *foreignState) Route(req route.Request, loads *load.Tracker) (*dipath.Path, error) {
	if *s.f.on {
		return s.f.p, nil
	}
	return s.inner.Route(req, loads)
}

// TestForeignRouteRefused pins every entry point that commits a routed
// path against a route that serves the request but whose arcs lie
// outside the session's graph: Add, TryAdd and Reroute return the
// colorer's validation error and leave the live set, its loads and its
// wavelengths as they were — with and without a budget, on a DAG
// without internal cycle (the Theorem-1 precheck reads the tracker
// first) and on one with an internal cycle (the rollback probe).
// Reroute reaches its restore branch: the old path is recolored after
// the new one failed.
func TestForeignRouteRefused(t *testing.T) {
	chain := digraph.New(3)
	chain.MustAddArc(0, 1)
	chain.MustAddArc(1, 2)
	gadget, _, err := gen.InternalCycleGadget(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []struct {
		name string
		g    *digraph.Digraph
	}{{"cycle-free", chain}, {"internal-cycle", gadget}} {
		// A one-arc dipath serving req in a digraph whose arc ids run past
		// the topology's: its arc id is out of range for the session's
		// graph. A chain of spare vertices carries the arcs before it.
		req := route.NewRouter(topo.g).AllToAll()[0]
		n, nv := topo.g.NumArcs()+8, topo.g.NumVertices()
		big := digraph.New(nv + n + 1)
		for v := nv; v < nv+n; v++ {
			big.MustAddArc(digraph.Vertex(v), digraph.Vertex(v+1))
		}
		big.MustAddArc(req.Src, req.Dst)
		foreign := dipath.MustFromVertices(big, req.Src, req.Dst)
		verr := foreign.Validate(topo.g)
		if verr == nil {
			t.Fatal("fixture: the foreign path validates")
		}
		for _, budget := range []int{0, 2} {
			for _, op := range []string{"Add", "TryAdd", "Reroute"} {
				name := fmt.Sprintf("%s/budget=%d/%s", topo.name, budget, op)
				on := new(bool)
				net := &Network{Topology: topo.g}
				s, err := net.NewSession(WithWavelengthBudget(budget),
					WithRoutingStrategy(foreignRouting{on, foreign}))
				if err != nil {
					t.Fatal(err)
				}
				if budget > 0 && s.cycleFree != (topo.g == chain) {
					t.Fatalf("%s: fixture: cycleFree = %v", name, s.cycleFree)
				}
				id, err := s.Add(req)
				if err != nil {
					t.Fatal(err)
				}
				path, _ := s.Path(id)
				w, _ := s.Wavelength(id)
				loads := s.ArcLoads()
				*on = true
				switch op {
				case "Add":
					_, err = s.Add(req)
				case "TryAdd":
					_, _, err = s.TryAdd(req)
				case "Reroute":
					_, err = s.Reroute(id)
				}
				if err == nil || !strings.Contains(err.Error(), verr.Error()) {
					t.Fatalf("%s: err = %v, want the validation error %q", name, err, verr)
				}
				if s.Len() != 1 || !slices.Equal(s.ArcLoads(), loads) {
					t.Fatalf("%s: len %d, loads %v → %v", name, s.Len(), loads, s.ArcLoads())
				}
				if p, err := s.Path(id); err != nil || !p.Equal(path) {
					t.Fatalf("%s: path %v → %v (%v)", name, path, p, err)
				}
				if got, _ := s.Wavelength(id); got != w {
					t.Fatalf("%s: wavelength %d → %d", name, w, got)
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// wrongCommit is an admission strategy (and its own state) that commits
// path for every over-budget request, through the budget-checked door
// or the best-effort one.
type wrongCommit struct {
	path       *dipath.Path
	bestEffort bool
}

func (w wrongCommit) NewState(*digraph.Digraph) (AdmissionState, error) { return w, nil }

func (w wrongCommit) Admit(c *AdmissionContext) (SessionID, Admission, error) {
	if w.bestEffort {
		id, err := c.CommitBestEffort(w.path)
		if err != nil {
			return 0, Admission{}, err
		}
		return id, Admission{Accepted: true, BestEffort: true}, nil
	}
	id, ok, err := c.Commit(w.path)
	if err != nil || !ok {
		return 0, Admission{}, err
	}
	return id, Admission{Accepted: true, Retried: true}, nil
}

// TestStrategyPathMustServeRequest pins that a strategy cannot commit a
// dipath of the session's graph that runs between other endpoints than
// the request's. A routing strategy's path is refused by Add, TryAdd
// and Reroute; an admission strategy's by Commit and CommitBestEffort.
// Each refusal is an error, and the session keeps its live set, loads,
// wavelengths and best-effort count.
func TestStrategyPathMustServeRequest(t *testing.T) {
	g, v := diamond(t)
	req := route.Request{Src: v[0], Dst: v[3]}
	short := dipath.MustFromVertices(g, v[0], v[1]) // s->a: stops short of t
	other := dipath.MustFromVertices(g, v[2], v[3]) // b->t: starts elsewhere
	for _, op := range []string{"Add", "TryAdd", "Reroute", "Commit", "CommitBestEffort"} {
		t.Run(op, func(t *testing.T) {
			on := new(bool)
			opts := []SessionOption{WithRoutingStrategy(foreignRouting{on, short})}
			if op == "Commit" || op == "CommitBestEffort" {
				opts = []SessionOption{WithWavelengthBudget(1),
					WithAdmissionStrategy(wrongCommit{other, op == "CommitBestEffort"})}
			}
			s, err := (&Network{Topology: g}).NewSession(opts...)
			if err != nil {
				t.Fatal(err)
			}
			id, err := s.Add(req)
			if err != nil {
				t.Fatal(err)
			}
			path, _ := s.Path(id)
			w, _ := s.Wavelength(id)
			loads := s.ArcLoads()
			*on = true
			switch op {
			case "Add":
				_, err = s.Add(req)
			case "Reroute":
				_, err = s.Reroute(id)
			default:
				// The second s->t offer is over the budget of 1 (its
				// route crosses the first one's), so the admission
				// strategy commits.
				_, _, err = s.TryAdd(req)
			}
			if err == nil {
				t.Fatalf("%s committed a path that does not serve %v", op, req)
			}
			if s.Len() != 1 || s.BestEffortLive() != 0 || !slices.Equal(s.ArcLoads(), loads) {
				t.Fatalf("len %d, best-effort %d, loads %v → %v", s.Len(), s.BestEffortLive(), loads, s.ArcLoads())
			}
			if p, err := s.Path(id); err != nil || !p.Equal(path) {
				t.Fatalf("path %v → %v (%v)", path, p, err)
			}
			if got, _ := s.Wavelength(id); got != w {
				t.Fatalf("wavelength %d → %d", w, got)
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
