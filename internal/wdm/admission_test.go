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
	if sess.Budget() != 1 || sess.AdmissionStrategyName() != AdmissionReject {
		t.Fatalf("budget %d strategy %q", sess.Budget(), sess.AdmissionStrategyName())
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
		WithAdmissionStrategyName(AdmissionRetryAltRoute),
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
		WithAdmissionStrategyName(AdmissionDegrade),
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

// budgetChurn drives a budgeted session through a randomized trace and
// asserts the acceptance criteria after every step: π ≤ w (the accepted
// set stays Theorem-1 feasible), λ ≤ w, Verify-clean, rejections are
// exactly the Theorem-1-infeasible offers (cycle-free sessions), and a
// rejection never mutates observable state.
func budgetChurn(t *testing.T, g *digraph.Digraph, w int, steps int, seed int64, opts ...SessionOption) {
	t.Helper()
	net := &Network{Topology: g}
	sess, err := net.NewSession(append([]SessionOption{WithWavelengthBudget(w)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(g).AllToAll()
	if len(pool) == 0 {
		t.Fatal("no routable pairs")
	}
	rng := rand.New(rand.NewSource(seed))
	shadow := load.NewTracker(g)
	exactPrecheck := sess.usesPrecheck()
	var ids []SessionID
	var paths []*dipath.Path
	for step := 0; step < steps; step++ {
		if len(ids) == 0 || rng.Intn(3) != 0 {
			req := pool[rng.Intn(len(pool))]
			lenBefore, piBefore := sess.Len(), sess.Pi()
			id, adm, err := sess.TryAdd(req)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if adm.Accepted {
				p, err := sess.Path(id)
				if err != nil {
					t.Fatal(err)
				}
				shadow.Add(p)
				ids = append(ids, id)
				paths = append(paths, p)
			} else {
				if sess.Len() != lenBefore || sess.Pi() != piBefore {
					t.Fatalf("step %d: rejection mutated state", step)
				}
				if exactPrecheck {
					// The precheck is exact: the rejected request's shortest
					// route must genuinely not fit the budget.
					p, rerr := route.NewRouter(g).ShortestPath(req.Src, req.Dst)
					if rerr != nil {
						t.Fatal(rerr)
					}
					if shadow.FitsAdditional(p, w) {
						t.Fatalf("step %d: rejected a Theorem-1-admissible request", step)
					}
				}
			}
		} else {
			i := rng.Intn(len(ids))
			if err := sess.Remove(ids[i]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			shadow.Remove(paths[i])
			ids[i], paths[i] = ids[len(ids)-1], paths[len(paths)-1]
			ids, paths = ids[:len(ids)-1], paths[:len(paths)-1]
		}
		if pi := sess.Pi(); pi > w {
			t.Fatalf("step %d: π=%d past budget %d", step, pi, w)
		}
		if n, err := sess.NumLambda(); err != nil || n > w {
			t.Fatalf("step %d: λ=%d past budget %d (%v)", step, n, w, err)
		}
		if err := sess.Verify(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	st := sess.AdmissionStats()
	if st.Accepted == 0 || st.Rejected == 0 {
		t.Fatalf("degenerate trace: stats %+v", st)
	}
}

func TestBudgetChurnCycleFree(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(24, 4, 4, 0.25, 131)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		budgetChurn(t, g, w, 400, 132+int64(w))
	}
}

func TestBudgetChurnRollbackProbe(t *testing.T) {
	// Same cycle-free topology, forced down the general-DAG probe: the
	// invariants must hold on both admission paths.
	g, err := gen.RandomNoInternalCycleDAG(24, 4, 4, 0.25, 131)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		budgetChurn(t, g, w, 300, 141+int64(w), withAdmissionRollbackProbe())
	}
}

func TestBudgetChurnInternalCycle(t *testing.T) {
	// Topologies with internal cycles take the color-then-rollback path
	// natively; λ ≤ w and rejection-leaves-no-trace must still hold.
	g, _, err := gen.InternalCycleGadget(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3} {
		budgetChurn(t, g, w, 300, 151+int64(w))
	}
}

func TestBudgetChurnRetryStrategy(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(24, 4, 4, 0.3, 161)
	if err != nil {
		t.Fatal(err)
	}
	net := &Network{Topology: g}
	const w = 2
	sess, err := net.NewSession(
		WithWavelengthBudget(w),
		WithAdmissionStrategyName(AdmissionRetryAltRoute),
	)
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(g).AllToAll()
	rng := rand.New(rand.NewSource(162))
	var ids []SessionID
	for step := 0; step < 500; step++ {
		if len(ids) == 0 || rng.Intn(3) != 0 {
			if id, adm, err := sess.TryAdd(pool[rng.Intn(len(pool))]); err != nil {
				t.Fatal(err)
			} else if adm.Accepted {
				ids = append(ids, id)
			}
		} else {
			i := rng.Intn(len(ids))
			if err := sess.Remove(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if n, err := sess.NumLambda(); err != nil || n > w {
			t.Fatalf("step %d: λ=%d past budget (%v)", step, n, err)
		}
		if sess.Pi() > w {
			t.Fatalf("step %d: π=%d past budget", step, sess.Pi())
		}
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
	if st := sess.AdmissionStats(); st.Retried == 0 {
		t.Skipf("trace never exercised the alternate-route recovery: %+v", st)
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

// budgetEngineChurn drives a budgeted sharded engine through batched
// randomized churn via ApplyBatchInto and asserts λ ≤ w, π ≤ w and
// Verify-clean at every batch boundary, plus the stats aggregation.
func budgetEngineChurn(t *testing.T, g *digraph.Digraph, w, batches, batchSize int, seed int64, opts ...ShardedOption) {
	t.Helper()
	net := &Network{Topology: g}
	eng, err := net.NewShardedEngine(append([]ShardedOption{WithEngineWavelengthBudget(w)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(g).AllToAll()
	rng := rand.New(rand.NewSource(seed))
	var ids []ShardedID
	var results []BatchResult
	accepted, rejected := 0, 0
	for b := 0; b < batches; b++ {
		ops := make([]BatchOp, 0, batchSize)
		removedIdx := make(map[int]bool)
		for len(ops) < batchSize {
			if len(ids) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(ids))
				if removedIdx[i] {
					continue
				}
				removedIdx[i] = true
				ops = append(ops, RemoveOp(ids[i]))
			} else {
				ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
			}
		}
		results = eng.ApplyBatchInto(ops, results)
		for k, res := range results {
			switch {
			case res.Err == nil && ops[k].Kind == BatchAdd:
				ids = append(ids, res.ID)
				accepted++
			case res.Err != nil && ops[k].Kind == BatchAdd:
				if !errors.Is(res.Err, ErrBudgetExceeded) {
					t.Fatalf("batch %d op %d: %v", b, k, res.Err)
				}
				rejected++
			case res.Err != nil:
				t.Fatalf("batch %d op %d: %v", b, k, res.Err)
			}
		}
		// Compact the id list (removals processed above marked indices).
		if len(removedIdx) > 0 {
			kept := ids[:0]
			for i, id := range ids {
				if !removedIdx[i] {
					kept = append(kept, id)
				}
			}
			ids = kept
		}
		if pi := eng.Pi(); pi > w {
			t.Fatalf("batch %d: π=%d past budget %d", b, pi, w)
		}
		if n, err := eng.NumLambda(); err != nil || n > w {
			t.Fatalf("batch %d: λ=%d past budget %d (%v)", b, n, w, err)
		}
		if err := eng.Verify(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	st := eng.Stats()
	if st.Accepted() != accepted || st.Rejected() != rejected {
		t.Fatalf("stats accepted/rejected = %d/%d, observed %d/%d",
			st.Accepted(), st.Rejected(), accepted, rejected)
	}
	if st.Budget != w {
		t.Fatalf("stats budget %d, want %d", st.Budget, w)
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate trace: %d accepted, %d rejected", accepted, rejected)
	}
}

func multiComponentTopo(t *testing.T, parts, nInternal int, seed int64) *digraph.Digraph {
	t.Helper()
	insts := make([]gen.Instance, parts)
	for i := range insts {
		g, err := gen.RandomNoInternalCycleDAG(nInternal, 4, 4, 0.25, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = gen.Instance{G: g}
	}
	g, _ := gen.DisjointUnion(insts...)
	return g
}

func TestBudgetedEngineChurn(t *testing.T) {
	g := multiComponentTopo(t, 4, 20, 171)
	for _, w := range []int{2, 4} {
		budgetEngineChurn(t, g, w, 30, 32, 172+int64(w), WithSubshardThreshold(0))
	}
}

func TestBudgetedEngineChurnTwoLevel(t *testing.T) {
	parts := make([]*digraph.Digraph, 4)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(16, 3, 3, 0.25, int64(181+i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = g
	}
	g, _, err := gen.GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
	// Force the two-level layout and band the budget: regions admit
	// against w-1, the overlay lane against 1.
	budgetEngineChurn(t, g, 4, 30, 32, 187,
		WithSubshardThreshold(16), WithOverlayBudgetSlice(1))
	// Default slice.
	budgetEngineChurn(t, g, 5, 30, 32, 188, WithSubshardThreshold(16))
}

func TestBudgetedEngineUnbandableBudget(t *testing.T) {
	parts := make([]*digraph.Digraph, 3)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(16, 3, 3, 0.25, int64(191+i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = g
	}
	g, _, err := gen.GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
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
	parts := make([]*digraph.Digraph, 3)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(16, 3, 3, 0.25, int64(231+i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = g
	}
	giant, _, err := gen.GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
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
	g := multiComponentTopo(t, 2, 12, 201)
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
	parts := make([]*digraph.Digraph, 3)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(16, 3, 3, 0.25, int64(211+i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = g
	}
	g, _, err := gen.GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
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

func (foreignRouting) Name() string { return "foreign" }

func (f foreignRouting) NewState(g *digraph.Digraph) (RoutingState, error) {
	inner, err := shortestStrategy{}.NewState(g)
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
// path against a route whose arcs lie outside the session's graph: Add,
// TryAdd and Reroute return the colorer's validation error and leave
// the live set, its loads and its wavelengths as they were — with and
// without a budget, on a DAG without internal cycle (the Theorem-1
// precheck reads the tracker first) and on one with an internal cycle
// (the rollback probe). Reroute reaches its restore branch: the old
// path is recolored after the new one failed.
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
		// A chain longer than the topology: its last arc id is out of
		// range for the session's graph.
		n := topo.g.NumArcs() + 8
		big := digraph.New(n + 1)
		for v := 0; v < n; v++ {
			big.MustAddArc(digraph.Vertex(v), digraph.Vertex(v+1))
		}
		foreign := dipath.MustFromVertices(big, digraph.Vertex(n-1), digraph.Vertex(n))
		verr := foreign.Validate(topo.g)
		if verr == nil {
			t.Fatal("fixture: the foreign path validates")
		}
		req := route.NewRouter(topo.g).AllToAll()[0]
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
