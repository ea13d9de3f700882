package wdm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// replayEquivalence pins the engine to a from-scratch session over the
// engine's current (possibly grown) topology: the engine's merged
// provisioning is re-admitted path-by-path into a fresh unbudgeted
// session — every path must seat, π must be exactly equal, the fresh
// session's λ must not exceed the engine's budget band structure's
// upper bound, and both sides must be Verify-clean. topo must be the
// test's own copy of the engine's final topology (the engine privatizes
// its copy on the first AddArc).
func replayEquivalence(t *testing.T, eng *ShardedEngine, topo *digraph.Digraph) {
	t.Helper()
	if err := eng.Verify(); err != nil {
		t.Fatalf("engine not Verify-clean: %v", err)
	}
	prov, err := eng.Provisioning()
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Paths) != eng.Len() {
		t.Fatalf("provisioning has %d paths for %d live requests", len(prov.Paths), eng.Len())
	}
	res := &core.Result{Colors: prov.Wavelengths, NumColors: prov.NumLambda, Pi: prov.Pi}
	if err := core.Verify(topo, prov.Paths, res); err != nil {
		t.Fatalf("merged provisioning not proper on the final topology: %v", err)
	}
	fresh, err := (&Network{Topology: topo}).NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range prov.Paths {
		if _, adm, err := fresh.TryAddPath(p); err != nil || !adm.Accepted {
			t.Fatalf("path %d rejected by from-scratch session: adm=%+v err=%v", i, adm, err)
		}
	}
	if fresh.Pi() != eng.Pi() {
		t.Fatalf("from-scratch π = %d, engine π = %d", fresh.Pi(), eng.Pi())
	}
	if err := fresh.Verify(); err != nil {
		t.Fatalf("from-scratch session not Verify-clean: %v", err)
	}
	if w := eng.Budget(); w > 0 {
		n, err := strongNumLambda(eng)
		if err != nil {
			t.Fatal(err)
		}
		if n > w {
			t.Fatalf("engine λ = %d exceeds budget %d", n, w)
		}
	}
}

// adaptiveFixture glues several Theorem 1 DAGs into one giant component
// and returns the network plus the per-part vertex lists (the glue
// structure the drifting workloads target).
func adaptiveFixture(t testing.TB, parts int, seed int64) (*Network, [][]digraph.Vertex) {
	t.Helper()
	gs := make([]*digraph.Digraph, parts)
	for i := range gs {
		g, err := gen.RandomNoInternalCycleDAG(14, 3, 3, 0.25, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	g, pv, err := gen.GlueChain(gs...)
	if err != nil {
		t.Fatal(err)
	}
	return &Network{Topology: g}, pv
}

// regionPairs returns global (src, dst) pairs that dispatch to one
// region lane of the engine's first two-level component: the endpoints
// of that region's arcs. It also returns the lane so the test can watch
// it. Requires the internal layout (package wdm test).
func regionPairs(t *testing.T, eng *ShardedEngine) ([]route.Request, *engineShard, *engineComponent) {
	t.Helper()
	for _, c := range eng.comps {
		if c.dead || len(c.regionShards) == 0 {
			continue
		}
		// The largest region gives re-splitting the most room.
		best := -1
		for ri, rs := range c.regionShards {
			if best < 0 || rs.sess.net.Topology.NumArcs() > c.regionShards[best].sess.net.Topology.NumArcs() {
				best = ri
			}
		}
		rs := c.regionShards[best]
		var pairs []route.Request
		for _, a := range rs.sess.net.Topology.Arcs() {
			pairs = append(pairs, route.Request{
				Src: rs.toGlobalVertex[a.Tail],
				Dst: rs.toGlobalVertex[a.Head],
			})
		}
		if len(pairs) < 4 {
			continue
		}
		return pairs, rs, c
	}
	t.Fatal("fixture has no two-level component with a usable region")
	return nil, nil, nil
}

// TestAddArcPlainComponent covers live capacity adds on single-level
// components: an arc inside one component grows its lane in place, the
// new arc is immediately routable, survives a cut/repair cycle, and the
// engine stays equivalent to a from-scratch session on the grown
// topology. The engine's topology is private after the first add — the
// caller's Network must not change.
func TestAddArcPlainComponent(t *testing.T) {
	net := multiComponentNetwork(t, 3, 501)
	arcsBefore := net.Topology.NumArcs()
	topo := net.Topology.Clone() // the test's mirror of the engine's topology
	eng, err := net.NewShardedEngine(WithShardWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	pool := route.NewRouter(net.Topology).AllToAll()
	rng := rand.New(rand.NewSource(502))
	var ids []ShardedID
	for i := 0; i < 40; i++ {
		id, err := eng.Add(pool[rng.Intn(len(pool))])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Add an arc between two vertices of one component, against the
	// grain: dst -> src of a routable pair keeps it inside the component
	// without duplicating an existing arc's endpoints ordering.
	req := pool[0]
	ga, err := eng.AddArc(req.Dst, req.Src)
	if err != nil {
		t.Fatalf("AddArc: %v", err)
	}
	if _, err := topo.AddArc(req.Dst, req.Src); err != nil {
		t.Fatal(err)
	}
	if net.Topology.NumArcs() != arcsBefore {
		t.Fatalf("AddArc mutated the caller's Network: %d arcs, want %d", net.Topology.NumArcs(), arcsBefore)
	}
	if st := strongStats(eng); st.ArcAdds != 1 {
		t.Fatalf("ArcAdds = %d, want 1", st.ArcAdds)
	}
	// The reverse pair is now routable — over the new arc.
	back, err := eng.Add(route.Request{Src: req.Dst, Dst: req.Src})
	if err != nil {
		t.Fatalf("add over the new arc: %v", err)
	}
	p, err := strongPath(eng, back)
	if err != nil {
		t.Fatal(err)
	}
	usesNew := false
	for _, a := range p.Arcs() {
		if a == ga {
			usesNew = true
		}
	}
	if !usesNew {
		t.Fatalf("path %v does not use the new arc %d", p, ga)
	}
	// The new arc participates in the survivability plane.
	if _, err := eng.FailArc(ga); err != nil {
		t.Fatalf("FailArc on added arc: %v", err)
	}
	if _, err := eng.RestoreArc(ga); err != nil {
		t.Fatalf("RestoreArc on added arc: %v", err)
	}
	for _, id := range ids {
		if _, err := strongPath(eng, id); err != nil {
			t.Fatalf("pre-add id lost: %v", err)
		}
	}
	replayEquivalence(t, eng, topo)

	// Validation: out-of-range vertices and self-loops are rejected with
	// no state change.
	if _, err := eng.AddArc(-1, 0); err == nil {
		t.Fatal("AddArc(-1, 0) succeeded")
	}
	if _, err := eng.AddArc(0, 0); err == nil {
		t.Fatal("self-loop AddArc succeeded")
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAddArcTwoLevel covers the two same-component shapes on a
// two-level layout: an arc whose endpoints share a region joins that
// region's lane (region-confined routing may use it), and an arc
// bridging regions becomes overlay-owned — no region lane knows it, the
// component turns escalating, and cutting it storms only the overlay.
func TestAddArcTwoLevel(t *testing.T) {
	net, _ := adaptiveFixture(t, 4, 511)
	topo := net.Topology.Clone()
	eng := twoLevelEngine(t, net, WithShardWorkers(2))
	defer eng.Close()

	pairs, rs, c := regionPairs(t, eng)
	rng := rand.New(rand.NewSource(512))
	for i := 0; i < 30; i++ {
		if _, err := eng.Add(pairs[rng.Intn(len(pairs))]); err != nil {
			t.Fatal(err)
		}
	}

	// Join-region: reverse one of the region's arcs.
	in := pairs[0]
	regionsBefore := len(c.regionShards)
	ga, err := eng.AddArc(in.Dst, in.Src)
	if err != nil {
		t.Fatalf("join-region AddArc: %v", err)
	}
	if _, err := topo.AddArc(in.Dst, in.Src); err != nil {
		t.Fatal(err)
	}
	if len(c.regionShards) != regionsBefore {
		t.Fatalf("join-region add changed the lane count: %d, want %d", len(c.regionShards), regionsBefore)
	}
	if ri := c.regions.ArcRegion[e_arcLoc(eng, ga)]; ri < 0 {
		t.Fatalf("join-region arc is overlay-owned (region %d)", ri)
	}
	if _, err := eng.Add(route.Request{Src: in.Dst, Dst: in.Src}); err != nil {
		t.Fatalf("add over the join-region arc: %v", err)
	}

	// Bridge: connect this region to a vertex with no common region —
	// scan for one.
	var bridgeSrc, bridgeDst digraph.Vertex = -1, -1
	lsrc := eng.localV[in.Src]
scan:
	for gv := range eng.label {
		v := digraph.Vertex(gv)
		if eng.label[v] != c.idx || v == in.Src {
			continue
		}
		if _, _, _, ok := c.regions.CommonRegion(lsrc, eng.localV[v]); !ok {
			bridgeSrc, bridgeDst = in.Src, v
			break scan
		}
	}
	if bridgeSrc < 0 {
		t.Fatal("fixture has no cross-region pair")
	}
	ga2, err := eng.AddArc(bridgeSrc, bridgeDst)
	if err != nil {
		t.Fatalf("bridge AddArc: %v", err)
	}
	if _, err := topo.AddArc(bridgeSrc, bridgeDst); err != nil {
		t.Fatal(err)
	}
	if ri := c.regions.ArcRegion[e_arcLoc(eng, ga2)]; ri >= 0 {
		t.Fatalf("bridge arc landed in region %d, want overlay-owned", ri)
	}
	if !c.escalate {
		t.Fatal("bridge add did not turn the component escalating")
	}
	// The bridge pair routes (overlay lane owns the arc), and cutting the
	// bridge storms cleanly: the path either reroutes around the cut or
	// parks dark, and the engine stays coherent either way.
	bid, err := eng.Add(route.Request{Src: bridgeSrc, Dst: bridgeDst})
	if err != nil {
		t.Fatalf("add over the bridge arc: %v", err)
	}
	if _, err := eng.FailArc(ga2); err != nil {
		t.Fatalf("FailArc on bridge arc: %v", err)
	}
	dark, err := strongIsDark(eng, bid)
	if err != nil {
		t.Fatalf("bridge id lost after the cut: %v", err)
	}
	if !dark {
		p, err := strongPath(eng, bid)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range p.Arcs() {
			if a == ga2 {
				t.Fatalf("restored path %v still crosses the cut arc %d", p, ga2)
			}
		}
	}
	if _, err := eng.RestoreArc(ga2); err != nil {
		t.Fatalf("RestoreArc on bridge arc: %v", err)
	}
	_ = rs
	replayEquivalence(t, eng, topo)
}

// e_arcLoc reads the engine's component-local id of a global arc (test
// helper; the table is package-internal).
func e_arcLoc(eng *ShardedEngine, ga digraph.ArcID) digraph.ArcID { return eng.arcLoc[ga] }

// TestAddArcMerge covers the cross-component shape: an arc between two
// components merges them into one plain component. Every lightpath of
// both survives the merge — ids issued before keep resolving through
// the retired lanes' forward maps, strong and snapshot reads agree —
// and the merged pair becomes routable.
func TestAddArcMerge(t *testing.T) {
	net := multiComponentNetwork(t, 4, 521)
	topo := net.Topology.Clone()
	eng, err := net.NewShardedEngine(WithShardWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	pool := route.NewRouter(net.Topology).AllToAll()
	rng := rand.New(rand.NewSource(522))
	type held struct {
		id ShardedID
		p  string
	}
	var ids []held
	for i := 0; i < 60; i++ {
		id, err := eng.Add(pool[rng.Intn(len(pool))])
		if err != nil {
			t.Fatal(err)
		}
		p, err := strongPath(eng, id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, held{id, p.String()})
	}
	lenBefore := eng.Len()

	// Bridge two components: a source vertex of one to a source of
	// another (sources always exist in Theorem 1 DAGs).
	var u, v digraph.Vertex = -1, -1
	for gv := range eng.label {
		if eng.label[gv] == 0 && u < 0 {
			u = digraph.Vertex(gv)
		}
		if eng.label[gv] == 1 && v < 0 {
			v = digraph.Vertex(gv)
		}
	}
	compsBefore := eng.NumComponents()
	ga, err := eng.AddArc(u, v)
	if err != nil {
		t.Fatalf("merge AddArc: %v", err)
	}
	if _, err := topo.AddArc(u, v); err != nil {
		t.Fatal(err)
	}
	if eng.NumComponents() != compsBefore {
		t.Fatalf("merge changed the component slot count: %d, want %d (dead slots stay)", eng.NumComponents(), compsBefore)
	}
	if eng.Len() != lenBefore {
		t.Fatalf("merge lost traffic: Len %d, want %d", eng.Len(), lenBefore)
	}
	// Every pre-merge id resolves to its exact pre-merge route, through
	// both read planes.
	snap := eng.Snapshot()
	defer snap.Release()
	for _, h := range ids {
		p, err := strongPath(eng, h.id)
		if err != nil {
			t.Fatalf("pre-merge id lost (strong): %v", err)
		}
		if p.String() != h.p {
			t.Fatalf("pre-merge route changed: %s, want %s", p, h.p)
		}
		sp, err := snap.Path(h.id)
		if err != nil {
			t.Fatalf("pre-merge id lost (snapshot): %v", err)
		}
		if sp.String() != h.p {
			t.Fatalf("pre-merge route changed in snapshot: %s, want %s", sp, h.p)
		}
	}
	// The merged pair is routable over the bridge.
	mid, err := eng.Add(route.Request{Src: u, Dst: v})
	if err != nil {
		t.Fatalf("add across the merged components: %v", err)
	}
	p, err := strongPath(eng, mid)
	if err != nil {
		t.Fatal(err)
	}
	usesNew := false
	for _, a := range p.Arcs() {
		usesNew = usesNew || a == ga
	}
	if !usesNew {
		t.Fatalf("merged-pair path %v does not use the bridge arc %d", p, ga)
	}
	// Removes through forward maps work.
	if err := eng.Remove(ids[0].id); err != nil {
		t.Fatalf("Remove through forward map: %v", err)
	}
	replayEquivalence(t, eng, topo)
}

// TestAddArcClosed pins the lifecycle contract.
func TestAddArcClosed(t *testing.T) {
	net := multiComponentNetwork(t, 2, 531)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddArc(0, 1); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("AddArc after Close: %v, want ErrEngineClosed", err)
	}
}

// TestAdaptiveBandingRequiresBudget pins the option contract: banding
// re-splits the wavelength budget, so an unbudgeted engine rejects it,
// and a malformed AdaptiveConfig is rejected at construction.
func TestAdaptiveBandingRequiresBudget(t *testing.T) {
	net, _ := adaptiveFixture(t, 3, 541)
	if _, err := net.NewShardedEngine(WithAdaptiveBanding()); err == nil {
		t.Fatal("adaptive banding without a budget succeeded")
	}
	bad := DefaultAdaptiveConfig()
	bad.HighWater = 0.2 // below LowWater
	if _, err := net.NewShardedEngine(WithAdaptiveConfig(bad)); err == nil {
		t.Fatal("malformed AdaptiveConfig accepted")
	}
}

// TestRebandHysteresis is the oscillation property test: under a load
// that flips between overlay-heavy and idle every batch, the pressure
// gauges never sustain HysteresisBatches of one-sided evidence, so the
// engine must not re-band at all; under a sustained one-sided load it
// must re-band, and no more than once per hysteresis window.
func TestRebandHysteresis(t *testing.T) {
	const hys = 4
	build := func(t *testing.T) (*ShardedEngine, []route.Request, []route.Request) {
		cfg := DefaultAdaptiveConfig()
		cfg.HysteresisBatches = hys
		cfg.Alpha = 0.9 // react fast: the hysteresis gate alone must hold oscillation
		net, _ := adaptiveFixture(t, 4, 551)
		eng := twoLevelEngine(t, net,
			WithShardWorkers(2),
			WithEngineWavelengthBudget(6),
			WithOverlayBudgetSlice(1),
			WithAdaptiveBanding(),
			WithAdaptiveConfig(cfg),
		)
		// Overlay-heavy load: cross-region pairs (no common region) with a
		// 1-wavelength overlay slice saturate admission immediately.
		// Region load: in-region arc pairs.
		regional, _, c := regionPairs(t, eng)
		var cross []route.Request
		for gv := range eng.label {
			v := digraph.Vertex(gv)
			if eng.label[v] != c.idx {
				continue
			}
			for gw := range eng.label {
				w := digraph.Vertex(gw)
				if v == w || eng.label[w] != c.idx {
					continue
				}
				if _, _, _, ok := c.regions.CommonRegion(eng.localV[v], eng.localV[w]); ok {
					continue
				}
				if sh, _, err := eng.dispatchAdd(route.Request{Src: v, Dst: w}); err == nil && sh.kind == shardOverlay {
					cross = append(cross, route.Request{Src: v, Dst: w})
				}
				if len(cross) >= 40 {
					return eng, regional, cross
				}
			}
		}
		if len(cross) == 0 {
			t.Fatal("fixture has no overlay pairs")
		}
		return eng, regional, cross
	}
	// One burst = ONE batch mixing this round's adds with the teardown
	// of the previous round's accepted adds: every batch carries fresh
	// admission offers, so the saturation gauge sees a sustained load as
	// sustained (a remove-only batch would read as an idle tick and
	// decay it).
	var carry []ShardedID
	burst := func(eng *ShardedEngine, pool []route.Request, n int, rng *rand.Rand) {
		ops := make([]BatchOp, 0, n+len(carry))
		for i := 0; i < n; i++ {
			ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
		}
		for _, id := range carry {
			ops = append(ops, RemoveOp(id))
		}
		results := eng.ApplyBatch(ops)
		carry = carry[:0]
		for i, r := range results {
			if ops[i].Kind == BatchAdd && r.Err == nil {
				carry = append(carry, r.ID)
			}
		}
	}

	t.Run("oscillating", func(t *testing.T) {
		eng, regional, cross := build(t)
		defer eng.Close()
		carry = nil
		rng := rand.New(rand.NewSource(552))
		for batch := 0; batch < 8*hys; batch++ {
			if batch%2 == 0 {
				burst(eng, cross, 20, rng)
			} else {
				burst(eng, regional, 20, rng)
			}
		}
		if st := strongStats(eng); st.Rebands != 0 {
			t.Fatalf("oscillating load re-banded %d times, want 0", st.Rebands)
		}
	})
	t.Run("sustained", func(t *testing.T) {
		eng, _, cross := build(t)
		defer eng.Close()
		carry = nil
		rng := rand.New(rand.NewSource(553))
		const batches = 8 * hys
		for batch := 0; batch < batches; batch++ {
			burst(eng, cross, 20, rng)
		}
		st := strongStats(eng)
		if st.Rebands < 1 {
			t.Fatal("sustained overlay pressure never re-banded")
		}
		// One burst is one batch, and a re-layout is gated on hys batches
		// of cooldown: at most one re-band per hys batches.
		if max := batches / hys; st.Rebands > max {
			t.Fatalf("re-banded %d times in %d batches, hysteresis allows at most %d", st.Rebands, batches, max)
		}
		if err := eng.Verify(); err != nil {
			t.Fatal(err)
		}
		if n, err := strongNumLambda(eng); err != nil || n > eng.Budget() {
			t.Fatalf("λ = %d exceeds budget %d after re-banding (err=%v)", n, eng.Budget(), err)
		}
	})
}

// TestResplitHotRegion drives all traffic at one region lane until the
// engine re-splits it: the lane count grows, the event share rebalances
// the hot traffic across the two halves, ids issued before the re-split
// keep resolving to their exact routes, and the engine stays equivalent
// to a from-scratch session. Pinned snapshots taken before the re-split
// are immutable.
func TestResplitHotRegion(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	cfg.HysteresisBatches = 2
	cfg.Alpha = 0.8
	cfg.ResplitShare = 0.5
	cfg.MinRegionArcs = 4
	net, _ := adaptiveFixture(t, 4, 561)
	eng := twoLevelEngine(t, net,
		WithShardWorkers(2),
		WithRegionResplit(),
		WithAdaptiveConfig(cfg),
	)
	defer eng.Close()
	topo := net.Topology.Clone()

	pairs, rs, c := regionPairs(t, eng)
	rng := rand.New(rand.NewSource(562))
	lanesInitial := len(c.regionShards)

	// Seed standing traffic in the hot region and pin its routes,
	// snapshotting before the pressure can have triggered a re-split.
	type held struct {
		id ShardedID
		p  string
	}
	var ids []held
	var snap *EngineSnapshot
	for i := 0; i < 20; i++ {
		id, err := eng.Add(pairs[rng.Intn(len(pairs))])
		if err != nil {
			t.Fatal(err)
		}
		p, err := strongPath(eng, id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, held{id, p.String()})
		if i == 0 {
			snap = eng.Snapshot()
			defer snap.Release()
		}
	}
	snapLen := snap.Len()

	// Hammer the region until the engine re-splits it.
	var split bool
	for batch := 0; batch < 40 && !split; batch++ {
		ops := make([]BatchOp, 0, 16)
		for i := 0; i < 16; i++ {
			ops = append(ops, AddOp(pairs[rng.Intn(len(pairs))]))
		}
		results := eng.ApplyBatch(ops)
		ops = ops[:0]
		for _, r := range results {
			if r.Err == nil {
				ops = append(ops, RemoveOp(r.ID))
			}
		}
		eng.ApplyBatch(ops)
		split = strongStats(eng).Resplits > 0
	}
	if !split {
		t.Fatal("hot region was never re-split")
	}
	if len(c.regionShards) <= lanesInitial {
		t.Fatalf("re-splitting did not grow the lane count: %d, started at %d", len(c.regionShards), lanesInitial)
	}
	if !rs.retired {
		t.Fatal("hot lane was not retired")
	}
	// Once no lane dominates the component's event share any more, the
	// re-splitting settles: equilibrium, not thrash. Run the same load
	// on and require the layout to hold still.
	settled := strongStats(eng).Resplits
	lanesSettled := len(c.regionShards)
	for batch := 0; batch < 10; batch++ {
		ops := make([]BatchOp, 0, 16)
		for i := 0; i < 16; i++ {
			ops = append(ops, AddOp(pairs[rng.Intn(len(pairs))]))
		}
		results := eng.ApplyBatch(ops)
		ops = ops[:0]
		for _, r := range results {
			if r.Err == nil {
				ops = append(ops, RemoveOp(r.ID))
			}
		}
		eng.ApplyBatch(ops)
	}
	if st := strongStats(eng); st.Resplits > settled+1 || len(c.regionShards) > lanesSettled+1 {
		t.Fatalf("re-splitting did not settle: %d re-splits (was %d), %d lanes (was %d)",
			st.Resplits, settled, len(c.regionShards), lanesSettled)
	}
	if !c.escalate {
		t.Fatal("re-split component is not escalating region no-routes")
	}
	// Old ids resolve to their exact routes through the forward map.
	for _, h := range ids {
		p, err := strongPath(eng, h.id)
		if err != nil {
			t.Fatalf("pre-split id lost: %v", err)
		}
		if p.String() != h.p {
			t.Fatalf("pre-split route changed: %s, want %s", p, h.p)
		}
	}
	// The pinned snapshot still serves the pre-split world — exactly the
	// ids that existed when it was taken, with their exact routes.
	if snap.Len() != snapLen {
		t.Fatalf("pinned snapshot Len changed: %d, want %d", snap.Len(), snapLen)
	}
	for _, h := range ids[:snapLen] {
		p, err := snap.Path(h.id)
		if err != nil {
			t.Fatalf("pinned snapshot lost id: %v", err)
		}
		if p.String() != h.p {
			t.Fatalf("pinned snapshot route changed: %s, want %s", p, h.p)
		}
	}
	// The hot traffic keeps flowing after the re-split, and a removal
	// through the forward map works.
	if err := eng.Remove(ids[0].id); err != nil {
		t.Fatalf("Remove through forward map: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := eng.Add(pairs[rng.Intn(len(pairs))]); err != nil {
			t.Fatal(err)
		}
	}
	replayEquivalence(t, eng, topo)
}

// TestAdaptiveRandomizedEquivalence is the tentpole pin: a randomized
// churn of adds, removes, capacity adds and failure events on a fully
// adaptive engine (banding + re-splitting), checked after every phase
// against a from-scratch session over the engine's final topology — the
// engine's state must always be exactly representable from scratch (π
// exact, merged coloring proper, λ within the budget), no matter how
// many re-layouts it has been through.
func TestAdaptiveRandomizedEquivalence(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	cfg.HysteresisBatches = 3
	cfg.Alpha = 0.7
	cfg.ResplitShare = 0.5
	cfg.MinRegionArcs = 4
	net, _ := adaptiveFixture(t, 4, 571)
	eng := twoLevelEngine(t, net,
		WithShardWorkers(2),
		WithEngineWavelengthBudget(8),
		WithOverlayBudgetSlice(2),
		WithAdaptiveBanding(),
		WithRegionResplit(),
		WithAdaptiveConfig(cfg),
	)
	defer eng.Close()
	topo := net.Topology.Clone()

	pairs, _, _ := regionPairs(t, eng)
	pool := route.NewRouter(net.Topology).AllToAll()
	rng := rand.New(rand.NewSource(572))
	var live []ShardedID
	phases := 12
	if testing.Short() {
		phases = 4
	}
	for phase := 0; phase < phases; phase++ {
		// A few churn batches, hot-region biased so re-layouts happen.
		for batch := 0; batch < 4; batch++ {
			ops := make([]BatchOp, 0, 24)
			removed := map[int]bool{}
			for k := 0; k < 24; k++ {
				if len(live) > 0 && rng.Intn(3) == 0 && len(removed) < len(live) {
					j := rng.Intn(len(live))
					for removed[j] {
						j = (j + 1) % len(live)
					}
					removed[j] = true
					ops = append(ops, RemoveOp(live[j]))
				} else if rng.Intn(4) != 0 {
					ops = append(ops, AddOp(pairs[rng.Intn(len(pairs))]))
				} else {
					ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
				}
			}
			results := eng.ApplyBatch(ops)
			var next []ShardedID
			for i, id := range live {
				if !removed[i] {
					next = append(next, id)
				}
			}
			for i, r := range results {
				if ops[i].Kind == BatchAdd && r.Err == nil {
					next = append(next, r.ID)
				}
			}
			live = next
		}
		// A capacity add every few phases: reverse a random routable pair.
		if phase%3 == 1 {
			req := pool[rng.Intn(len(pool))]
			if ga, err := eng.AddArc(req.Dst, req.Src); err == nil {
				if _, err := topo.AddArc(req.Dst, req.Src); err != nil {
					t.Fatal(err)
				}
				_ = ga
			}
		}
		// A cut/repair cycle every few phases.
		if phase%4 == 3 {
			a := digraph.ArcID(rng.Intn(topo.NumArcs()))
			if _, err := eng.FailArc(a); err == nil {
				if _, err := eng.RestoreArc(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		replayEquivalence(t, eng, topo)
	}
	st := strongStats(eng)
	if st.Resplits == 0 && st.Rebands == 0 {
		t.Log("randomized churn triggered no re-layouts (valid but weak run)")
	}
}

// TestAdaptiveConcurrentReaders races lock-free snapshot readers
// against the full adaptive write plane: churn batches, re-splits,
// re-bands and capacity adds. Run under -race; the invariant is simply
// that every pinned read is coherent (no torn state, ids resolve or
// report a clean error).
func TestAdaptiveConcurrentReaders(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	cfg.HysteresisBatches = 2
	cfg.Alpha = 0.8
	cfg.ResplitShare = 0.5
	cfg.MinRegionArcs = 4
	net, _ := adaptiveFixture(t, 3, 581)
	eng := twoLevelEngine(t, net,
		WithShardWorkers(2),
		WithEngineWavelengthBudget(8),
		WithOverlayBudgetSlice(2),
		WithAdaptiveBanding(),
		WithRegionResplit(),
		WithAdaptiveConfig(cfg),
	)
	defer eng.Close()

	pairs, _, _ := regionPairs(t, eng)
	pool := route.NewRouter(net.Topology).AllToAll()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := eng.Snapshot()
				n := snap.Len()
				if n < 0 {
					t.Error("negative snapshot Len")
				}
				_, _ = snap.NumLambda()
				_ = snap.ArcLoads()
				_ = snap.Stats()
				if rng.Intn(2) == 0 {
					_, _ = snap.Path(ShardedID{Shard: int32(rng.Intn(8)), ID: SessionID(rng.Intn(64))})
				}
				snap.Release()
			}
		}(int64(582 + r))
	}
	rng := rand.New(rand.NewSource(590))
	var live []ShardedID
	for batch := 0; batch < 60; batch++ {
		ops := make([]BatchOp, 0, 16)
		removed := map[int]bool{}
		for k := 0; k < 16; k++ {
			if len(live) > 0 && rng.Intn(3) == 0 && len(removed) < len(live) {
				j := rng.Intn(len(live))
				for removed[j] {
					j = (j + 1) % len(live)
				}
				removed[j] = true
				ops = append(ops, RemoveOp(live[j]))
			} else {
				ops = append(ops, AddOp(pairs[rng.Intn(len(pairs))]))
			}
		}
		results := eng.ApplyBatch(ops)
		var next []ShardedID
		for i, id := range live {
			if !removed[i] {
				next = append(next, id)
			}
		}
		for i, r := range results {
			if ops[i].Kind == BatchAdd && r.Err == nil {
				next = append(next, r.ID)
			}
		}
		live = next
		if batch%10 == 5 {
			req := pool[rng.Intn(len(pool))]
			_, _ = eng.AddArc(req.Dst, req.Src)
		}
	}
	close(stop)
	wg.Wait()
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

// renamedRouting is a routing strategy reporting another name.
type renamedRouting struct {
	RoutingStrategy
	name string
}

func (r renamedRouting) Name() string { return r.name }

// TestAddArcKeepsCustomRouting pins that a same-component AddArc
// rebuilds each lane's routing state from the strategy value the lane
// was opened with, not from the registry entry of its name: a custom
// strategy forwarded through WithShardSessionOptions keeps routing
// after the add, under a name of its own and under a built-in's name.
func TestAddArcKeepsCustomRouting(t *testing.T) {
	for _, name := range []string{"counting-shortest", RouteShortestName} {
		t.Run(name, func(t *testing.T) {
			var log []route.Request
			strat := renamedRouting{countingRouting{&log}, name}
			net := multiComponentNetwork(t, 2, 521)
			eng, err := net.NewShardedEngine(WithShardSessionOptions(WithRoutingStrategy(strat)))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			pool := route.NewRouter(net.Topology).AllToAll()
			for _, req := range pool[:10] {
				if _, err := eng.Add(req); err != nil {
					t.Fatal(err)
				}
			}
			if len(log) != 10 {
				t.Fatalf("custom strategy routed %d of 10 adds", len(log))
			}
			req := pool[0]
			if _, err := eng.AddArc(req.Dst, req.Src); err != nil {
				t.Fatalf("AddArc: %v", err)
			}
			before := len(log)
			if _, err := eng.Add(route.Request{Src: req.Dst, Dst: req.Src}); err != nil {
				t.Fatalf("add over the new arc: %v", err)
			}
			if len(log) != before+1 {
				t.Fatalf("after AddArc the custom strategy routed %d adds, want 1", len(log)-before)
			}
		})
	}
}
