package route

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
)

// TestRouterMatchesFreeFunctions checks that the state-reusing Router
// produces exactly the routes of the one-shot free functions across a
// batch (the free functions are themselves thin Router wrappers, so this
// guards the epoch-stamp reuse between consecutive searches).
func TestRouterMatchesFreeFunctions(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(25, 5, 5, 0.25, 51)
	if err != nil {
		t.Fatal(err)
	}
	reqs := AllToAll(g)
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	r := NewRouter(g)

	// Shortest: route the whole batch twice through one router and once
	// per-request through fresh state; all must agree arc-for-arc.
	batch1, err := r.ShortestPaths(reqs)
	if err != nil {
		t.Fatal(err)
	}
	batch2, err := r.ShortestPaths(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		fresh, err := ShortestPath(g, req.Src, req.Dst)
		if err != nil {
			t.Fatal(err)
		}
		if !batch1[i].Equal(fresh) || !batch2[i].Equal(fresh) {
			t.Fatalf("request %d (%d->%d): router route %v / %v, fresh %v",
				i, req.Src, req.Dst, batch1[i], batch2[i], fresh)
		}
	}

	// Min-load: deterministic across runs and between router and wrapper.
	a, err := r.MinLoadSequential(reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinLoadSequential(g, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if !a[i].Equal(b[i]) {
			t.Fatalf("min-load request %d: router %v, wrapper %v", i, a[i], b[i])
		}
	}
	if load.Pi(g, a) != load.Pi(g, b) {
		t.Fatalf("min-load π mismatch: %d vs %d", load.Pi(g, a), load.Pi(g, b))
	}
}

// TestRouterAllToAllMatchesReachability cross-checks the router's
// epoch-stamped reachability sweeps against the straightforward BFS.
func TestRouterAllToAllMatchesReachability(t *testing.T) {
	g := gen.RandomDAG(30, 70, 61)
	reqs := NewRouter(g).AllToAll()
	seen := map[[2]digraph.Vertex]bool{}
	for _, req := range reqs {
		seen[[2]digraph.Vertex{req.Src, req.Dst}] = true
	}
	n := g.NumVertices()
	count := 0
	for u := 0; u < n; u++ {
		reach := reachableSet(g, digraph.Vertex(u))
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if reach[v] {
				count++
				if !seen[[2]digraph.Vertex{digraph.Vertex(u), digraph.Vertex(v)}] {
					t.Fatalf("missing request %d->%d", u, v)
				}
			}
		}
	}
	if count != len(reqs) {
		t.Fatalf("router produced %d requests, reachability says %d", len(reqs), count)
	}
}

// TestRouterMulticastMatchesWrapper checks the Router multicast against
// the free function and the BFS-tree property.
func TestRouterMulticastMatchesWrapper(t *testing.T) {
	g := gen.RandomDAG(25, 60, 71)
	origin := digraph.Vertex(0)
	var dests []digraph.Vertex
	reach := reachableSet(g, origin)
	for v := 1; v < g.NumVertices(); v++ {
		if reach[v] {
			dests = append(dests, digraph.Vertex(v))
		}
	}
	if len(dests) == 0 {
		t.Skip("origin reaches nothing in this random graph")
	}
	r := NewRouter(g)
	a, err := r.Multicast(origin, dests)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Multicast(g, origin, dests)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dests {
		if !a[i].Equal(b[i]) {
			t.Fatalf("dest %d: router %v, wrapper %v", dests[i], a[i], b[i])
		}
		if a[i].First() != origin || a[i].Last() != dests[i] {
			t.Fatalf("dest %d: route %v has wrong endpoints", dests[i], a[i])
		}
	}
}

// TestRouterCrossComponentO1 pins the O(1) infeasibility rejection:
// after one exhausted search has labeled the components, a
// cross-component request must fail with ErrNoRoute without starting
// another search — the epoch stamp (bumped by every BFS/Dijkstra
// visit) is the expansion probe, and allocs/op bound the whole call to
// the error value itself.
func TestRouterCrossComponentO1(t *testing.T) {
	// Two disjoint directed paths: 0->1->2 and 3->4->5.
	g := digraph.New(6)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	g.MustAddArc(3, 4)
	g.MustAddArc(4, 5)
	r := NewRouter(g)

	// Warm the router so lazily allocated state is in place.
	if _, err := r.ShortestPath(0, 2); err != nil {
		t.Fatal(err)
	}
	tr := load.NewTracker(g)
	if _, err := r.MinLoadPath(Request{0, 2}, tr); err != nil {
		t.Fatal(err)
	}
	// The first infeasible request pays one exhausted search and labels
	// the components; everything after it must be O(1).
	if _, err := r.ShortestPath(0, 5); err == nil {
		t.Fatal("cross-component pair routed")
	}

	check := func(name string, run func() error) {
		t.Helper()
		before := r.epoch
		err := run()
		var noRoute ErrNoRoute
		if !errors.As(err, &noRoute) {
			t.Fatalf("%s: got %v, want ErrNoRoute", name, err)
		}
		if r.epoch != before {
			t.Fatalf("%s: search expansion detected (epoch %d -> %d)", name, before, r.epoch)
		}
		allocs := testing.AllocsPerRun(100, func() { _ = run() })
		if allocs > 1 {
			t.Fatalf("%s: %v allocs/op on the rejection path, want <= 1 (the error)", name, allocs)
		}
	}
	check("ShortestPath", func() error {
		_, err := r.ShortestPath(0, 5)
		return err
	})
	check("MinLoadPath", func() error {
		_, err := r.MinLoadPath(Request{0, 5}, tr)
		return err
	})

	// Routable requests still route after rejected ones.
	if _, err := r.ShortestPath(3, 5); err != nil {
		t.Fatal(err)
	}
}

// TestRouterCrossComponentAfterGrowth checks the O(1) rejection is a
// construction-time snapshot with a safe fallback: arcs added after
// NewRouter can merge components, and the router must then find the new
// route by search instead of trusting the stale labels.
func TestRouterCrossComponentAfterGrowth(t *testing.T) {
	g := digraph.New(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(2, 3)
	r := NewRouter(g)
	if _, err := r.ShortestPath(0, 3); err == nil {
		t.Fatal("disconnected pair routed")
	}
	g.MustAddArc(1, 2) // bridges the components after construction
	p, err := r.ShortestPath(0, 3)
	if err != nil {
		t.Fatalf("bridged pair not routed past the stale labels: %v", err)
	}
	if p.NumArcs() != 3 {
		t.Fatalf("route %v, want 0->1->2->3", p)
	}
	tr := load.NewTracker(g)
	if _, err := r.MinLoadPath(Request{0, 3}, tr); err != nil {
		t.Fatalf("min-load bridged pair not routed: %v", err)
	}

	// Vertex growth: an unreachable new vertex must produce a clean
	// ErrNoRoute — neither the rejection guard nor the search may index
	// past state sized before the vertex existed.
	v := g.AddVertex("")
	g.MustAddArc(v, 0)
	if _, err := r.ShortestPath(0, v); err == nil {
		t.Fatal("unreachable grown vertex routed")
	}
	if _, err := r.MinLoadPath(Request{0, v}, load.NewTracker(g)); err == nil {
		t.Fatal("min-load unreachable grown vertex routed")
	}
}

// TestRouterGrowthReachableVertex is the regression test for a router
// whose graph grows a reachable vertex after its search state was
// sized: both searches must route to it instead of indexing past their
// scratch arrays.
func TestRouterGrowthReachableVertex(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	r := NewRouter(g)
	tr := load.NewTracker(g)
	if _, err := r.ShortestPath(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MinLoadPath(Request{0, 2}, tr); err != nil {
		t.Fatal(err)
	}
	v := g.AddVertex("")
	g.MustAddArc(2, v)
	tr.GrowArcs(g.NumArcs())
	p, err := r.ShortestPath(0, v)
	if err != nil || p.NumArcs() != 3 {
		t.Fatalf("ShortestPath to grown vertex = %v, %v; want 0->1->2->v", p, err)
	}
	p, err = r.MinLoadPath(Request{0, v}, tr)
	if err != nil || p.NumArcs() != 3 {
		t.Fatalf("MinLoadPath to grown vertex = %v, %v; want 0->1->2->v", p, err)
	}
}

// TestRouterUnreachableSameComponentO1 pins the O(1) rejection of a
// pair in one component with no dipath between its endpoints, such as
// the reversal of a routable DAG request: once the destination's
// ancestor set is cached, MinLoadPath must reject it without a search
// and without allocating beyond the error, the way
// TestRouterCrossComponentO1 pins the cross-component case.
func TestRouterUnreachableSameComponentO1(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(25, 5, 5, 0.25, 51)
	if err != nil {
		t.Fatal(err)
	}
	req := AllToAll(g)[0]
	rev := Request{req.Dst, req.Src}
	r := NewRouter(g)
	tr := load.NewTracker(g)
	if _, err := r.MinLoadPath(req, tr); err != nil {
		t.Fatal(err)
	}
	// The first reversed request builds the source's ancestor set.
	if _, err := r.MinLoadPath(rev, tr); err == nil {
		t.Fatal("reversed DAG request routed")
	}
	before := r.epoch
	run := func() error {
		_, err := r.MinLoadPath(rev, tr)
		return err
	}
	var noRoute ErrNoRoute
	if err := run(); !errors.As(err, &noRoute) {
		t.Fatalf("got %v, want ErrNoRoute", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = run() }); allocs > 1 {
		t.Fatalf("%v allocs/op on the rejection path, want <= 1 (the error)", allocs)
	}
	if r.epoch != before {
		t.Fatalf("search expansion detected (epoch %d -> %d)", before, r.epoch)
	}
}

// oracleMinLoadPath is the min-load search without ancestor pruning
// and with every label reset per call: a lexicographic (load, hops)
// Dijkstra over every vertex reachable from the source. It is the
// reference Router.MinLoadPath must match arc for arc on valid
// requests.
func oracleMinLoadPath(g *digraph.Digraph, req Request, t *load.Tracker) (*dipath.Path, error) {
	n := g.NumVertices()
	if req.Src == req.Dst {
		return dipath.FromVertices(g, req.Src)
	}
	const inf = int(^uint(0) >> 1)
	bestLoad := make([]int, n)
	bestHops := make([]int, n)
	done := make([]bool, n)
	prevArc := make([]digraph.ArcID, n)
	for v := 0; v < n; v++ {
		bestLoad[v], bestHops[v], prevArc[v] = inf, inf, -1
	}
	bestLoad[req.Src], bestHops[req.Src] = 0, 0
	h := &Router{} // borrowed for its heap only
	h.heapPush(heapItem{0, 0, req.Src})
	for len(h.heap) > 0 {
		it := h.heapPop()
		u := it.v
		if done[u] || it.load != bestLoad[u] || it.hops != bestHops[u] {
			continue
		}
		if u == req.Dst {
			var arcs []digraph.ArcID
			for v := req.Dst; v != req.Src; v = g.Arc(prevArc[v]).Tail {
				arcs = append(arcs, prevArc[v])
			}
			for i, j := 0, len(arcs)-1; i < j; i, j = i+1, j-1 {
				arcs[i], arcs[j] = arcs[j], arcs[i]
			}
			return dipath.FromArcs(g, arcs...)
		}
		done[u] = true
		for _, a := range g.OutArcs(u) {
			if g.ArcFailed(a) {
				continue
			}
			v := g.Arc(a).Head
			if done[v] {
				continue
			}
			nl := bestLoad[u]
			if t.Load(a)+1 > nl {
				nl = t.Load(a) + 1
			}
			nh := bestHops[u] + 1
			if nl < bestLoad[v] || (nl == bestLoad[v] && nh < bestHops[v]) {
				bestLoad[v], bestHops[v], prevArc[v] = nl, nh, a
				h.heapPush(heapItem{nl, nh, v})
			}
		}
	}
	return nil, ErrNoRoute{req}
}

// minLoadEquiv drives one Router through a stream of requests and
// topology and load mutations, checking every min-load answer against
// oracleMinLoadPath on the same graph and loads.
type minLoadEquiv struct {
	t     testing.TB
	g     *digraph.Digraph
	r     *Router
	tr    *load.Tracker
	paths []*dipath.Path // routed paths currently added to tr
}

func newMinLoadEquiv(t testing.TB, g *digraph.Digraph) *minLoadEquiv {
	return &minLoadEquiv{t: t, g: g, r: NewRouter(g), tr: load.NewTracker(g)}
}

// route asks both searches for req and fails on any difference; a
// routed path is added to the loads when keep is set. It reports
// whether req routed.
func (e *minLoadEquiv) route(req Request, keep bool) bool {
	e.t.Helper()
	got, gotErr := e.r.MinLoadPath(req, e.tr)
	want, wantErr := oracleMinLoadPath(e.g, req, e.tr)
	var nr ErrNoRoute
	switch {
	case wantErr != nil:
		if !errors.As(wantErr, &nr) || !errors.As(gotErr, &nr) {
			e.t.Fatalf("%d->%d on %v: router %v, %v; oracle %v", req.Src, req.Dst, e.g, got, gotErr, wantErr)
		}
		return false
	case gotErr != nil || !got.Equal(want):
		e.t.Fatalf("%d->%d on %v: router %v, %v; oracle %v", req.Src, req.Dst, e.g, got, gotErr, want)
	}
	if keep && got.NumArcs() > 0 {
		e.tr.Add(got)
		e.paths = append(e.paths, got)
	}
	return true
}

// remove takes the i-th kept path (mod their count) off the loads.
func (e *minLoadEquiv) remove(i int) {
	if len(e.paths) == 0 {
		return
	}
	i %= len(e.paths)
	e.tr.Remove(e.paths[i])
	e.paths[i] = e.paths[len(e.paths)-1]
	e.paths = e.paths[:len(e.paths)-1]
}

// cutAndRestore fails arc a, routes across it, restores it and routes
// across it again: an ancestor set built while the arc was down must
// not hide it afterwards.
func (e *minLoadEquiv) cutAndRestore(a digraph.ArcID) {
	e.t.Helper()
	if e.g.ArcFailed(a) {
		return
	}
	arc := e.g.Arc(a)
	if err := e.g.FailArc(a); err != nil {
		e.t.Fatal(err)
	}
	e.route(Request{arc.Tail, arc.Head}, false)
	if err := e.g.RestoreArc(a); err != nil {
		e.t.Fatal(err)
	}
	if !e.route(Request{arc.Tail, arc.Head}, false) {
		e.t.Fatalf("restored arc %d->%d not routed", arc.Tail, arc.Head)
	}
}

// addArc adds u->v after routing to v, so an ancestor set of v built
// before the arc existed is in place, then routes u->v over it.
func (e *minLoadEquiv) addArc(u, v digraph.Vertex) {
	e.t.Helper()
	if u == v {
		return
	}
	e.route(Request{u, v}, false)
	e.g.MustAddArc(u, v)
	e.tr.GrowArcs(e.g.NumArcs())
	if !e.route(Request{u, v}, false) {
		e.t.Fatalf("new arc %d->%d not routed", u, v)
	}
}

// addVertex adds a vertex joined to u by one arc, into it when in is
// set and out of it otherwise, and routes across that arc.
func (e *minLoadEquiv) addVertex(u digraph.Vertex, in bool) {
	e.t.Helper()
	v := e.g.AddVertex("")
	req := Request{v, u}
	if in {
		req = Request{u, v}
	}
	e.g.MustAddArc(req.Src, req.Dst)
	e.tr.GrowArcs(e.g.NumArcs())
	if !e.route(req, true) {
		e.t.Fatalf("arc into grown vertex %d->%d not routed", req.Src, req.Dst)
	}
}

// step applies one mutation or request chosen by op, with x and y
// selecting its vertices, arc or path.
func (e *minLoadEquiv) step(op, x, y int) {
	e.t.Helper()
	n, m := e.g.NumVertices(), e.g.NumArcs()
	u, v := digraph.Vertex(x%n), digraph.Vertex(y%n)
	switch op % 8 {
	case 0, 1, 2:
		e.route(Request{u, v}, true)
	case 3:
		e.remove(x)
	case 4:
		if m > 0 {
			e.cutAndRestore(digraph.ArcID(x % m))
		}
	case 5:
		// A cut left in place until a later step restores it.
		if m == 0 {
			return
		}
		a := digraph.ArcID(x % m)
		var err error
		if e.g.ArcFailed(a) {
			err = e.g.RestoreArc(a)
		} else {
			err = e.g.FailArc(a)
		}
		if err != nil {
			e.t.Fatal(err)
		}
	case 6:
		e.addArc(u, v)
	case 7:
		e.addVertex(u, y%2 == 0)
	}
}

// oracleBFS is the breadth-first search of ShortestPath and Multicast
// over g's own adjacency lists, with labels reset per call: prev[v] is
// the live arc v was first reached by from src, and reached[v] whether
// it was reached at all.
func oracleBFS(g *digraph.Digraph, src digraph.Vertex) (prev []digraph.ArcID, reached []bool) {
	n := g.NumVertices()
	prev = make([]digraph.ArcID, n)
	reached = make([]bool, n)
	reached[src], prev[src] = true, -1
	queue := []digraph.Vertex{src}
	for next := 0; next < len(queue); next++ {
		for _, a := range g.OutArcs(queue[next]) {
			if h := g.Arc(a).Head; !g.ArcFailed(a) && !reached[h] {
				reached[h], prev[h] = true, a
				queue = append(queue, h)
			}
		}
	}
	return prev, reached
}

// checkBFS checks the router's breadth-first searches on the current
// graph, after whatever growth and cuts the stream applied, against the
// free functions (a fresh Router each) and oracleBFS: AllToAll, and
// from each origin, Multicast to every vertex it reaches and
// ShortestPath to each of them.
func (e *minLoadEquiv) checkBFS(origins ...digraph.Vertex) {
	e.t.Helper()
	g := e.g
	n := g.NumVertices()
	got, free := e.r.AllToAll(), AllToAll(g)
	var want []Request
	for u := 0; u < n; u++ {
		_, reached := oracleBFS(g, digraph.Vertex(u))
		for v := 0; v < n; v++ {
			if v != u && reached[v] {
				want = append(want, Request{digraph.Vertex(u), digraph.Vertex(v)})
			}
		}
	}
	if !slices.Equal(got, want) || !slices.Equal(free, want) {
		e.t.Fatalf("AllToAll on %v: router %d requests, free %d, oracle %d", g, len(got), len(free), len(want))
	}
	for _, o := range origins {
		o = digraph.Vertex(int(o) % n)
		prev, reached := oracleBFS(g, o)
		var dests []digraph.Vertex
		var paths []*dipath.Path
		for v := 0; v < n; v++ {
			if !reached[v] || v == int(o) {
				continue
			}
			var arcs []digraph.ArcID
			for u := digraph.Vertex(v); u != o; u = g.Arc(prev[u]).Tail {
				arcs = append([]digraph.ArcID{prev[u]}, arcs...)
			}
			p, err := dipath.FromArcs(g, arcs...)
			if err != nil {
				e.t.Fatal(err)
			}
			dests = append(dests, digraph.Vertex(v))
			paths = append(paths, p)
		}
		mc, err := e.r.Multicast(o, dests)
		if err != nil {
			e.t.Fatalf("Multicast from %d: %v", o, err)
		}
		freeMC, err := Multicast(g, o, dests)
		if err != nil {
			e.t.Fatalf("free Multicast from %d: %v", o, err)
		}
		for i, d := range dests {
			sp, err := e.r.ShortestPath(o, d)
			if err != nil {
				e.t.Fatalf("ShortestPath %d->%d: %v", o, d, err)
			}
			freeSP, err := ShortestPath(g, o, d)
			if err != nil {
				e.t.Fatalf("free ShortestPath %d->%d: %v", o, d, err)
			}
			for name, p := range map[string]*dipath.Path{
				"Multicast": mc[i], "free Multicast": freeMC[i],
				"ShortestPath": sp, "free ShortestPath": freeSP,
			} {
				if !p.Equal(paths[i]) {
					e.t.Fatalf("%s %d->%d on %v: %v, oracle %v", name, o, d, g, p, paths[i])
				}
			}
		}
	}
}

// TestMinLoadPathMatchesUnprunedSearch checks the pruned, epoch-stamped
// search against oracleMinLoadPath, path by path, on random DAGs
// without and with internal cycles and with parallel arcs, under
// interleaved load changes, cuts, restorations and growth. The larger
// graphs have more than 64 vertices, so their ancestor sets span
// several words of the slab, and one graph grows across the 64-vertex
// boundary mid-stream, which resets the slab at a new set width. At the
// end of each stream the router's breadth-first searches are checked
// against the free functions and a plain BFS (checkBFS).
func TestMinLoadPathMatchesUnprunedSearch(t *testing.T) {
	withParallels := func(g *digraph.Digraph) *digraph.Digraph {
		for a := 0; a < g.NumArcs(); a += 3 {
			arc := g.Arc(digraph.ArcID(a))
			g.MustAddArc(arc.Tail, arc.Head)
		}
		return g
	}
	for seed := int64(1); seed <= 6; seed++ {
		noCycle, err := gen.RandomNoInternalCycleDAG(20, 4, 4, 0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		largeNoCycle, err := gen.RandomNoInternalCycleDAG(120, 8, 8, 0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs := map[string]*digraph.Digraph{
			"no-internal-cycle":       noCycle,
			"internal-cycles":         gen.RandomDAG(20, 45, seed),
			"parallel-arcs":           withParallels(gen.RandomDAG(20, 40, seed)),
			"large-no-internal-cycle": largeNoCycle,
			"large-parallel-arcs":     withParallels(gen.RandomDAG(100, 220, seed)),
		}
		for name, g := range graphs {
			e := newMinLoadEquiv(t, g)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				// Requests dominate, as in a routing batch; mutations
				// are spread between them.
				op := rng.Intn(16)
				if op >= 8 {
					op = 0
				}
				e.step(op, rng.Intn(1<<16), rng.Intn(1<<16))
			}
			if len(e.paths) == 0 {
				t.Fatalf("%s seed %d: nothing routed", name, seed)
			}
			e.checkBFS(0, digraph.Vertex(rng.Intn(1<<16)), digraph.Vertex(rng.Intn(1<<16)))
		}

		// Growth across one bitset word: ancestor sets are built at 60
		// vertices (one word), then vertices are added one at a time up
		// to 72 (two words) with requests between them, each addition
		// dropping the sets and refilling the slab at the new width.
		// The 65th vertex comes without an arc, so only the vertex
		// count moves the set width.
		e := newMinLoadEquiv(t, gen.RandomDAG(60, 150, seed))
		rng := rand.New(rand.NewSource(seed))
		for e.g.NumVertices() < 72 {
			for i := 0; i < 20; i++ {
				e.step(0, rng.Intn(1<<16), rng.Intn(1<<16))
			}
			if e.g.NumVertices() == 64 {
				lone := e.g.AddVertex("")
				for v := digraph.Vertex(0); v < lone; v += 7 {
					e.route(Request{v, lone}, true)
					e.route(Request{lone, v}, true)
				}
				e.checkBFS(0, lone)
			}
			e.step(7, rng.Intn(1<<16), rng.Intn(1<<16))
		}
		for i := 0; i < 100; i++ {
			e.step(0, rng.Intn(1<<16), rng.Intn(1<<16))
		}
		e.checkBFS(0, 63, 64, 71)
	}
}

// TestMinLoadSequentialAllocs guards the allocation budget of batch
// min-load routing at the plan-theorem1 shape: 5000 requests on the
// 500-internal-vertex DAG without internal cycle through a fresh
// Router, as a one-shot plan does. The paths come from one arena, the
// ancestor sets from one slab and the adjacency from one CSR, so the
// batch must stay within 0.1 allocations per request.
func TestMinLoadSequentialAllocs(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
	if err != nil {
		t.Fatal(err)
	}
	pool := AllToAll(g)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, 5000)
	for i := range reqs {
		reqs[i] = pool[rng.Intn(len(pool))]
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := NewRouter(g).MinLoadSequential(reqs); err != nil {
			t.Fatal(err)
		}
	})
	if perReq := allocs / float64(len(reqs)); perReq > 0.1 {
		t.Fatalf("MinLoadSequential: %.3f allocations per request (%v per batch), want <= 0.1", perReq, allocs)
	}
}

// sinkFamily keeps benchmark results live.
var sinkFamily dipath.Family

// BenchmarkMinLoadSequential routes one batch of 5000 seeded reachable
// requests on the large Theorem-1 topology through a fresh Router per
// iteration, as a one-shot Provision does: the route layer alone,
// ancestor sets included.
func BenchmarkMinLoadSequential(b *testing.B) {
	g, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
	if err != nil {
		b.Fatal(err)
	}
	pool := AllToAll(g)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, 5000)
	for i := range reqs {
		reqs[i] = pool[rng.Intn(len(pool))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam, err := NewRouter(g).MinLoadSequential(reqs)
		if err != nil {
			b.Fatal(err)
		}
		sinkFamily = fam
	}
}
