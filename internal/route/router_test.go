package route

import (
	"container/heap"
	"errors"
	"math/bits"
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
// once the destination's ancestor set is cached, a cross-component
// request (whose source is outside that set) must fail with ErrNoRoute
// without starting a search — the epoch stamp (bumped by every
// BFS/Dijkstra visit) is the expansion probe, and allocs/op bound the
// whole call to the error value itself.
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
	// The first infeasible request builds the destination's ancestor
	// set; everything after it must be O(1).
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

// TestRouterCrossComponentAfterGrowth checks the O(1) rejection follows
// growth: arcs added after a rejection can merge components, and the
// router must then find the new route instead of trusting the ancestor
// set it cached before the arc existed.
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
		t.Fatalf("bridged pair not routed past the stale ancestor set: %v", err)
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
// Dijkstra over every vertex reachable from the source, on a
// container/heap of its own. It is the reference Router.MinLoadPath
// must match arc for arc on valid requests.
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
	h := &oracleHeap{{0, 0, req.Src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(oracleItem)
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
				heap.Push(h, oracleItem{nl, nh, v})
			}
		}
	}
	return nil, ErrNoRoute{req}
}

// oracleItem and oracleHeap are the oracle's priority queue: entries
// ordered by load, then hops, then vertex.
type oracleItem struct {
	load, hops int
	v          digraph.Vertex
}

type oracleHeap []oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.load != b.load {
		return a.load < b.load
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.v < b.v
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleItem)) }
func (h *oracleHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// minLoadEquiv drives one Router through a stream of requests and
// topology and load mutations, checking every min-load answer against
// oracleMinLoadPath and every shortest-path answer against oracleBFS on
// the same graph and loads.
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

// route asks the router's min-load and shortest-path searches for req
// and fails on any difference from their oracles, in the verdict or the
// path; a routed min-load path is added to the loads when keep is set.
// It reports whether req routed.
func (e *minLoadEquiv) route(req Request, keep bool) bool {
	e.t.Helper()
	e.checkShortest(req)
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

// prime hands the router a batch of requests to build the ancestor
// sets of, mid-stream, checks every set it holds against the reverse
// DFS oracle, and then routes the batch.
func (e *minLoadEquiv) prime(rng *rand.Rand, k int) {
	e.t.Helper()
	n := e.g.NumVertices()
	batch := make([]Request, k)
	for i := range batch {
		batch[i] = Request{digraph.Vertex(rng.Intn(n)), digraph.Vertex(rng.Intn(n))}
	}
	e.r.PrimeAncestors(batch)
	requireAncestorSets(e.t, e.r)
	for _, req := range batch {
		e.route(req, true)
	}
	requireAncestorSets(e.t, e.r)
}

// oracleAncestors is anc(d) by a plain reverse DFS over InArcs, failed
// arcs included, as a bitset of ⌈n/64⌉ words.
func oracleAncestors(g *digraph.Digraph, d digraph.Vertex) []uint64 {
	set := make([]uint64, (g.NumVertices()+63)/64)
	set[d>>6] |= 1 << (d & 63)
	stack := []digraph.Vertex{d}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.InArcs(v) {
			if u := g.Arc(a).Tail; set[u>>6]&(1<<(u&63)) == 0 {
				set[u>>6] |= 1 << (u & 63)
				stack = append(stack, u)
			}
		}
	}
	return set
}

// requireAncestorSets fails unless every ancestor set the router holds
// for the current graph equals the reverse DFS oracle's, word for word.
// A superset would route every request the same way, so paths alone
// cannot catch one.
func requireAncestorSets(t testing.TB, r *Router) {
	t.Helper()
	g := r.Graph()
	if r.builtArcs != g.NumArcs() || r.builtVerts != g.NumVertices() {
		return // stale: the next search drops them
	}
	w := (g.NumVertices() + 63) / 64
	for d, slot := range r.ancSlot[:g.NumVertices()] {
		if slot == 0 {
			continue
		}
		got := r.ancSlab[(int(slot)-1)*w : int(slot)*w]
		if want := oracleAncestors(g, digraph.Vertex(d)); !slices.Equal(got, want) {
			t.Fatalf("anc(%d) = %x, reverse DFS %x", d, got, want)
		}
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

// oraclePath rebuilds the dipath src→dst from oracleBFS's predecessor
// arcs; dst must have been reached.
func oraclePath(t testing.TB, g *digraph.Digraph, prev []digraph.ArcID, src, dst digraph.Vertex) *dipath.Path {
	t.Helper()
	if src == dst {
		p, err := dipath.FromVertices(g, src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var arcs []digraph.ArcID
	for u := dst; u != src; u = g.Arc(prev[u]).Tail {
		arcs = append([]digraph.ArcID{prev[u]}, arcs...)
	}
	p, err := dipath.FromArcs(g, arcs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkShortest checks Router.ShortestPath for req against oracleBFS
// on the current graph: ErrNoRoute exactly when the oracle does not
// reach the destination, and otherwise the oracle's path, arc for arc.
func (e *minLoadEquiv) checkShortest(req Request) {
	e.t.Helper()
	got, err := e.r.ShortestPath(req.Src, req.Dst)
	prev, reached := oracleBFS(e.g, req.Src)
	if !reached[req.Dst] {
		var nr ErrNoRoute
		if !errors.As(err, &nr) {
			e.t.Fatalf("ShortestPath %d->%d on %v: %v, %v; oracle no route", req.Src, req.Dst, e.g, got, err)
		}
		return
	}
	if want := oraclePath(e.t, e.g, prev, req.Src, req.Dst); err != nil || !got.Equal(want) {
		e.t.Fatalf("ShortestPath %d->%d on %v: %v, %v; oracle %v", req.Src, req.Dst, e.g, got, err, want)
	}
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
			dests = append(dests, digraph.Vertex(v))
			paths = append(paths, oraclePath(e.t, g, prev, o, digraph.Vertex(v)))
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
// boundary mid-stream, which resets the slab at a new set width. Every
// request also checks ShortestPath's verdict and path against a plain
// BFS, and at the end of each stream the router's breadth-first
// searches are checked against the free functions and a plain BFS
// (checkBFS).
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
				if i%100 == 50 {
					e.prime(rng, 12)
				}
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
			if e.g.NumVertices()%4 == 0 {
				e.prime(rng, 8)
			}
		}
		for i := 0; i < 100; i++ {
			e.step(0, rng.Intn(1<<16), rng.Intn(1<<16))
		}
		e.checkBFS(0, 63, 64, 71)
	}
}

// TestAncestorSetsMatchReverseDFS checks the ancestor sets a batch
// builds, done-set reuse and priming included, against the reverse DFS
// oracle on graphs with internal cycles, parallel arcs, directed cycles
// (whose vertices come last in the priming order) and more than 64
// vertices. The batch must also leave the slab holding exactly the sets
// that routing the same requests one by one builds: one per distinct
// destination of a request with src ≠ dst.
func TestAncestorSetsMatchReverseDFS(t *testing.T) {
	withParallels := func(g *digraph.Digraph) *digraph.Digraph {
		for a := 0; a < g.NumArcs(); a += 3 {
			arc := g.Arc(digraph.ArcID(a))
			g.MustAddArc(arc.Tail, arc.Head)
		}
		return g
	}
	withCycles := func(g *digraph.Digraph) *digraph.Digraph {
		for a := 0; a < g.NumArcs(); a += 7 {
			arc := g.Arc(digraph.ArcID(a))
			g.MustAddArc(arc.Head, arc.Tail)
		}
		return g
	}
	for seed := int64(1); seed <= 4; seed++ {
		graphs := map[string]*digraph.Digraph{
			"internal-cycles":  gen.RandomDAG(30, 70, seed),
			"parallel-arcs":    withParallels(gen.RandomDAG(30, 60, seed)),
			"directed-cycles":  withCycles(gen.RandomDAG(40, 90, seed)),
			"beyond-64":        gen.RandomDAG(150, 400, seed),
			"beyond-64-cycles": withCycles(gen.RandomDAG(130, 300, seed)),
		}
		for name, g := range graphs {
			pool := AllToAll(g)
			rng := rand.New(rand.NewSource(seed))
			reqs := make([]Request, 0, 60)
			for i := 0; i < 60; i++ {
				if i%9 == 0 {
					v := digraph.Vertex(rng.Intn(g.NumVertices()))
					reqs = append(reqs, Request{v, v})
					continue
				}
				reqs = append(reqs, pool[rng.Intn(len(pool))])
			}
			one := NewRouter(g)
			tr := load.NewTracker(g)
			for _, req := range reqs {
				p, err := one.MinLoadPath(req, tr)
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				tr.Add(p)
			}
			batch := NewRouter(g)
			if _, err := batch.MinLoadSequential(reqs); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			short := NewRouter(g)
			if _, err := short.ShortestPaths(reqs); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for _, r := range []*Router{one, batch, short} {
				requireAncestorSets(t, r)
				for d := range r.ancSlot {
					if (r.ancSlot[d] != 0) != (one.ancSlot[d] != 0) {
						t.Fatalf("%s seed %d: vertex %d has a set in one router and not the other", name, seed, d)
					}
				}
			}
		}
	}
}

// requireNeighbourWords fails unless the router's neighbour words
// decode, for every vertex u, to u's distinct out-neighbours in vertex
// order, each mapped to the only arc u→h, or to the complement of one
// of the arcs u→h when there are several; words must be non-zero and in
// increasing order. A sync must drop them: they are built by the next
// min-load search, here by buildWords itself.
func requireNeighbourWords(t *testing.T, name string, r *Router) {
	t.Helper()
	g := r.Graph()
	r.sync()
	if len(r.nbrStart) != 0 {
		t.Fatalf("%s: neighbour words kept across a sync", name)
	}
	r.buildWords()
	for v := 0; v < g.NumVertices(); v++ {
		u := digraph.Vertex(v)
		arcsTo := map[digraph.Vertex][]digraph.ArcID{}
		var want []digraph.Vertex
		for _, a := range g.OutArcs(u) {
			h := g.Arc(a).Head
			if arcsTo[h] == nil {
				want = append(want, h)
			}
			arcsTo[h] = append(arcsTo[h], a)
		}
		slices.Sort(want)
		var got []digraph.Vertex
		words := r.nbr[r.nbrStart[u]:r.nbrStart[u+1]]
		for i, e := range words {
			if e.mask == 0 || (i > 0 && e.word <= words[i-1].word) {
				t.Fatalf("%s: vertex %d: words %v not non-zero and increasing", name, u, words)
			}
			k := e.at
			for m := e.mask; m != 0; m &= m - 1 {
				h := digraph.Vertex(e.word)<<6 | digraph.Vertex(bits.TrailingZeros64(m))
				got = append(got, h)
				x, arcs := r.adj[k], arcsTo[h]
				k++
				switch {
				case len(arcs) == 1 && x != int32(arcs[0]):
					t.Fatalf("%s: arc %d->%d: entry %d, want %d", name, u, h, x, arcs[0])
				case len(arcs) > 1 && (x >= 0 || !slices.Contains(arcs, adjArc(x))):
					t.Fatalf("%s: parallel arcs %d->%d %v: entry %d", name, u, h, arcs, x)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: vertex %d: heads %v, want %v", name, u, got, want)
		}
	}
}

// TestRouterNeighbourWords checks the neighbour words the min-load
// search scans against OutArcs on the plan-theorem1 topology (sources
// with over a hundred out-arcs across every word) and the churn-giant
// one (eight glued parts beside a small satellite), with a cut arc;
// then again after each graph gains a parallel arc, which rebuilds the
// words, and a vertex with two arcs into it.
func TestRouterNeighbourWords(t *testing.T) {
	plan, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*digraph.Digraph, 8)
	for i := range parts {
		if parts[i], err = gen.RandomNoInternalCycleDAG(64, 6, 6, 0.2, 53+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	glued, _, err := gen.GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := gen.RandomNoInternalCycleDAG(12, 2, 2, 0.2, 1053)
	if err != nil {
		t.Fatal(err)
	}
	giant, _ := gen.DisjointUnion(gen.Instance{G: glued}, gen.Instance{G: sat})

	for name, g := range map[string]*digraph.Digraph{"plan": plan, "churn-giant": giant} {
		if err := g.FailArc(digraph.ArcID(g.NumArcs() / 2)); err != nil {
			t.Fatal(err)
		}
		r := NewRouter(g)
		requireNeighbourWords(t, name, r)

		busiest := digraph.Vertex(0)
		for v := 0; v < g.NumVertices(); v++ {
			if g.OutDegree(digraph.Vertex(v)) > g.OutDegree(busiest) {
				busiest = digraph.Vertex(v)
			}
		}
		first := g.Arc(g.OutArcs(busiest)[0])
		g.MustAddArc(first.Tail, first.Head)
		g.MustAddArc(first.Tail, first.Head)
		requireNeighbourWords(t, name+"+parallel", r)
		lone := g.AddVertex("")
		g.MustAddArc(first.Head, lone)
		g.MustAddArc(busiest, lone)
		requireNeighbourWords(t, name+"+vertex", r)
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
