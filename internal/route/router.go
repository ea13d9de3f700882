package route

import (
	"errors"
	"fmt"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
)

// Router holds reusable search state for routing many requests over one
// digraph. The free functions of this package allocate fresh BFS state
// per request — O(requests·n) churn on AllToAll-scale batches — whereas
// a Router allocates once and reuses: every per-vertex label is
// epoch-stamped (a new search is a counter bump, not an O(n) clear),
// and the predecessor, queue, heap and Dijkstra arrays are recycled
// across calls. The arrays grow with the graph: vertices added after
// NewRouter are routed like the others.
//
// Every search scans a private copy of the out-adjacency in compressed
// sparse rows (see the start field), and min-load searches are pruned
// to the ancestors of the destination — the vertices with a dipath to
// it — kept as one lazily computed bitset per destination in a shared
// slab (see the ancSlot field and MinLoadPath). Both are rebuilt when
// the graph gains an arc or a vertex. The batch calls ShortestPaths and
// MinLoadSequential carve the family they return from one dipath.Arena,
// so a batch costs a handful of path allocations, not three per path;
// other calls allocate each path on its own unless the caller passes an
// arena (ShortestPathIn, MinLoadPathIn).
//
// A Router is not safe for concurrent use; create one per goroutine.
type Router struct {
	g *digraph.Digraph

	// comp labels every vertex with its live weakly connected component
	// (failed arcs excluded), so infeasible cross-component requests
	// are rejected in O(1) instead of by an exhausted search (no dipath
	// crosses components). The labels are computed lazily, the first
	// time a search exhausts — one-shot routers never pay the O(V+A)
	// labeling pass, persistent routers converge to O(1) rejection.
	// compEpoch records the graph's topology epoch the labels were
	// computed at: arcs added, failed or restored later change live
	// connectivity, so a moved epoch falls back to the full search
	// until the next exhausted search refreshes the snapshot.
	comp      []int32
	compEpoch uint64

	// The out-adjacency of g in compressed sparse rows: the out-arcs of
	// v are arc[start[v]:start[v+1]], in OutArcs order, and head[i] is
	// the head of arc[i]. A search scans these two contiguous runs
	// instead of chasing g.OutArcs(v) and a 24-byte Arc per arc. The
	// order is OutArcs order, so BFS order, Dijkstra tie-breaks and the
	// choice among parallel arcs are those of a scan of g. Cuts are not
	// copied; searches read them through g.ArcFailed.
	start []int32
	head  []int32
	arc   []int32

	// ancSlot[d], when non-zero, locates the ancestor set of
	// destination d: words [(ancSlot[d]-1)·w, ancSlot[d]·w) of ancSlab,
	// w = ⌈n/64⌉, a bitset marking d and every vertex with a dipath to d
	// over every arc, failed or not. A set is built by one reverse DFS
	// the first time d is asked for and appended to the slab, so the
	// slab fills lazily up to n·w words and is never allocated whole (on
	// a large graph that would be gigabytes). Cuts and restorations only
	// shrink or regrow live reachability inside a set, so it stays a
	// valid superset across them; only added arcs or vertices can
	// create an ancestor it misses.
	ancSlot []int32
	ancSlab []uint64

	// The CSR and the ancestor sets were built at these arc and vertex
	// counts. Both counts only ever grow, so a moved count means the
	// graph gained an arc or a vertex: the CSR is rebuilt and the sets
	// are dropped, keeping the slab's capacity. Keying on the counts
	// rather than on the topology epoch every cut moves keeps both
	// across cuts and restorations.
	builtArcs, builtVerts int

	// Search state, valid where stamp[v] == epoch.
	epoch   int
	stamp   []int
	prevArc []digraph.ArcID
	queue   []digraph.Vertex

	// Lexicographic (load, hops) Dijkstra labels for bottleneck
	// routing, valid where stamp[v] == epoch; v is settled where
	// done[v] == epoch.
	bestLoad []int
	bestHops []int
	done     []int
	heap     []heapItem // reusable binary heap (lazy deletion)
}

// heapItem is a (priority, vertex) entry of the bottleneck Dijkstra heap.
type heapItem struct {
	load, hops int
	v          digraph.Vertex
}

func (r *Router) heapPush(it heapItem) {
	r.heap = append(r.heap, it)
	i := len(r.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(r.heap[i], r.heap[p]) {
			break
		}
		r.heap[i], r.heap[p] = r.heap[p], r.heap[i]
		i = p
	}
}

func (r *Router) heapPop() heapItem {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l < last && heapLess(r.heap[l], r.heap[smallest]) {
			smallest = l
		}
		if rt < last && heapLess(r.heap[rt], r.heap[smallest]) {
			smallest = rt
		}
		if smallest == i {
			break
		}
		r.heap[i], r.heap[smallest] = r.heap[smallest], r.heap[i]
		i = smallest
	}
	return top
}

func heapLess(a, b heapItem) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.v < b.v // deterministic order among equal priorities
}

// NewRouter returns a router over g. Its search state is sized at the
// first search and grows with g.
func NewRouter(g *digraph.Digraph) *Router { return &Router{g: g} }

// Graph returns the digraph the router routes over.
func (r *Router) Graph() *digraph.Digraph { return r.g }

// rejectCrossComponent reports whether the request provably has no
// route because its endpoints lie in different weakly connected
// components, per the lazily maintained label snapshot (see the comp
// field). False when no current snapshot exists — callers then search.
func (r *Router) rejectCrossComponent(src, dst digraph.Vertex) bool {
	return r.comp != nil &&
		r.compEpoch == r.g.TopologyEpoch() &&
		int(src) < len(r.comp) && int(dst) < len(r.comp) &&
		r.comp[src] != r.comp[dst]
}

// noteExhausted records that a search just exhausted without reaching
// its destination: the live component labels are (re)computed, once per
// topology epoch, so the next cross-component request on this router is
// rejected in O(1) instead of by another search.
func (r *Router) noteExhausted() {
	if r.comp == nil || r.compEpoch != r.g.TopologyEpoch() || len(r.comp) != r.g.NumVertices() {
		r.comp = r.g.LiveComponentLabels()
		r.compEpoch = r.g.TopologyEpoch()
	}
}

// sync rebuilds the CSR adjacency and drops the ancestor sets when the
// graph has gained an arc or a vertex since they were built (see the
// builtArcs field). Every search calls it first.
func (r *Router) sync() {
	g := r.g
	n, m := g.NumVertices(), g.NumArcs()
	if r.start != nil && r.builtArcs == m && r.builtVerts == n {
		return
	}
	r.builtArcs, r.builtVerts = m, n
	// The counts only grow, so growing the arrays sizes them exactly.
	r.start = grow(r.start, n+1)
	r.head = grow(r.head, m)
	r.arc = grow(r.arc, m)
	i := int32(0)
	for v := 0; v < n; v++ {
		r.start[v] = i
		for _, a := range g.OutArcs(digraph.Vertex(v)) {
			r.head[i] = int32(g.Arc(a).Head)
			r.arc[i] = int32(a)
			i++
		}
	}
	r.start[n] = i
	r.ancSlot = grow(r.ancSlot, n)
	clear(r.ancSlot)
	r.ancSlab = r.ancSlab[:0]
}

// visit begins a new search: previous visited marks become stale in O(1).
// The stamp and predecessor arrays are first grown to the graph's
// current vertex count, since vertices may have been added since the
// last search.
func (r *Router) visit() {
	n := r.g.NumVertices()
	r.stamp = grow(r.stamp, n)
	r.prevArc = grow(r.prevArc, n)
	r.epoch++
	r.queue = r.queue[:0]
}

// grow extends s with zero values to length n. A zero stamp never
// equals a live epoch, since visit bumps the epoch before any search.
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

func (r *Router) seen(v digraph.Vertex) bool { return r.stamp[v] == r.epoch }

func (r *Router) mark(v digraph.Vertex, via digraph.ArcID) {
	r.stamp[v] = r.epoch
	r.prevArc[v] = via
}

// bfs runs a breadth-first search from src over the live arcs, marking
// every reached vertex with its predecessor arc, and stops as soon as
// dst is marked; a negative dst sweeps everything src reaches. It
// reports whether dst was reached.
func (r *Router) bfs(src, dst digraph.Vertex) bool {
	r.sync()
	g := r.g
	failed := g.NumFailedArcs() > 0
	r.visit()
	r.mark(src, -1)
	r.queue = append(r.queue, src)
	for next := 0; next < len(r.queue); next++ {
		v := r.queue[next]
		for i := r.start[v]; i < r.start[v+1]; i++ {
			h := digraph.Vertex(r.head[i])
			if r.seen(h) {
				continue
			}
			a := digraph.ArcID(r.arc[i])
			if failed && g.ArcFailed(a) {
				continue
			}
			r.mark(h, a)
			if h == dst {
				return true
			}
			r.queue = append(r.queue, h)
		}
	}
	return false
}

// ShortestPath returns a dipath from src to dst minimising the number of
// arcs (BFS), identical to the free ShortestPath but allocation-free up
// to the returned path.
func (r *Router) ShortestPath(src, dst digraph.Vertex) (*dipath.Path, error) {
	return r.ShortestPathIn(src, dst, nil)
}

// ShortestPathIn is ShortestPath with the returned dipath carved from
// arena; a nil arena allocates it on its own.
func (r *Router) ShortestPathIn(src, dst digraph.Vertex, arena *dipath.Arena) (*dipath.Path, error) {
	n := r.g.NumVertices()
	if src < 0 || dst < 0 || int(src) >= n || int(dst) >= n {
		return nil, fmt.Errorf("route: vertex out of range")
	}
	if src == dst {
		return dipath.FromVertices(r.g, src)
	}
	if r.rejectCrossComponent(src, dst) {
		// No dipath crosses weakly connected components: the exhausted
		// BFS below would reach the same answer, in O(component) per
		// call instead of O(1).
		return nil, ErrNoRoute{Request{src, dst}}
	}
	if r.bfs(src, dst) {
		return r.assemble(src, dst, -1, arena)
	}
	r.noteExhausted()
	return nil, ErrNoRoute{Request{src, dst}}
}

// assemble rebuilds the dipath dst←src (src ≠ dst) from the epoch-valid
// predecessor chain, carving it from arena (nil: allocated on its own).
// hops is the chain's length when the search knows it (the min-load
// hop label), or negative, in which case a first walk counts it. The
// chain is checked once, while it is walked; the path is then wrapped
// without FromArcs' second chain check, since consecutive predecessor
// arcs share their vertex by construction.
func (r *Router) assemble(src, dst digraph.Vertex, hops int, arena *dipath.Arena) (*dipath.Path, error) {
	g := r.g
	if hops < 0 {
		hops = 0
		for v := dst; v != src; hops++ {
			a := r.prevArc[v]
			if !r.seen(v) || a < 0 {
				return nil, errBrokenChain
			}
			v = g.Arc(a).Tail
		}
	}
	arcs := arena.Arcs(hops)
	v := dst
	for i := hops - 1; i >= 0; i-- {
		a := r.prevArc[v]
		if !r.seen(v) || a < 0 {
			return nil, errBrokenChain
		}
		arcs[i] = a
		v = g.Arc(a).Tail
	}
	if v != src {
		return nil, errBrokenChain
	}
	return arena.FromArcsTrusted(g, arcs), nil
}

var errBrokenChain = errors.New("route: internal error: broken predecessor chain")

// ShortestPaths routes every request by shortest dipath, reusing the
// router's state across requests; it fails on the first unroutable
// request. The returned paths share storage (one dipath.Arena per call).
func (r *Router) ShortestPaths(reqs []Request) (dipath.Family, error) {
	arena := new(dipath.Arena)
	fam := make(dipath.Family, 0, len(reqs))
	for _, req := range reqs {
		p, err := r.ShortestPathIn(req.Src, req.Dst, arena)
		if err != nil {
			return nil, err
		}
		fam = append(fam, p)
	}
	return fam, nil
}

// MinLoadSequential routes the requests one by one, each time choosing a
// dipath minimising the resulting maximum arc load (ties broken by hop
// count, then by deterministic arc order). Loads accumulate in an
// incremental load.Tracker; the Dijkstra arrays are reused per request.
// The returned paths share storage (one dipath.Arena per call).
func (r *Router) MinLoadSequential(reqs []Request) (dipath.Family, error) {
	arena := new(dipath.Arena)
	t := load.NewTracker(r.g)
	fam := make(dipath.Family, 0, len(reqs))
	for _, req := range reqs {
		p, err := r.MinLoadPathIn(req, t, arena)
		if err != nil {
			return nil, err
		}
		t.Add(p)
		fam = append(fam, p)
	}
	return fam, nil
}

// MinLoadPath returns a dipath for req minimising (maximum arc load
// along the path against the loads tracked by t, then hop count) via
// lexicographic Dijkstra. It does not modify t — callers owning a
// long-lived Tracker (wdm sessions, MinLoadSequential) add the chosen
// path themselves.
//
// The search is pruned to anc(dst), the cached ancestor set of the
// destination (see the ancSlot field): a source outside it is rejected
// without a search, and a relaxed head outside it is skipped. The
// returned dipath is the one the unpruned search would return, arc for
// arc: a vertex outside anc(dst) has no arc into anc(dst), so it never
// relaxes a kept vertex; kept vertices get the same labels and
// predecessors and settle in the same (load, hops, vertex) order.
func (r *Router) MinLoadPath(req Request, t *load.Tracker) (*dipath.Path, error) {
	return r.MinLoadPathIn(req, t, nil)
}

// MinLoadPathIn is MinLoadPath with the returned dipath carved from
// arena; a nil arena allocates it on its own.
func (r *Router) MinLoadPathIn(req Request, t *load.Tracker, arena *dipath.Arena) (*dipath.Path, error) {
	g := r.g
	n := g.NumVertices()
	if req.Src < 0 || req.Dst < 0 || int(req.Src) >= n || int(req.Dst) >= n {
		return nil, fmt.Errorf("route: vertex out of range")
	}
	if req.Src == req.Dst {
		return dipath.FromVertices(g, req.Src)
	}
	if r.rejectCrossComponent(req.Src, req.Dst) {
		// Same O(1) rejection as ShortestPath: no dipath crosses
		// components, so the Dijkstra below could only exhaust itself.
		return nil, ErrNoRoute{req}
	}
	r.sync()
	anc := r.ancestors(req.Dst)
	if !inSet(anc, req.Src) {
		// No dipath to dst even over failed arcs.
		return nil, ErrNoRoute{req}
	}
	failed := g.NumFailedArcs() > 0
	r.visit() // reuse the epoch-stamped prevArc as the predecessor store
	r.bestLoad = grow(r.bestLoad, n)
	r.bestHops = grow(r.bestHops, n)
	r.done = grow(r.done, n)
	r.mark(req.Src, -1)
	r.bestLoad[req.Src], r.bestHops[req.Src] = 0, 0
	r.heap = r.heap[:0]
	r.heapPush(heapItem{0, 0, req.Src})
	for len(r.heap) > 0 {
		// Extract the unfinished vertex with the lexicographically
		// smallest (load, hops); stale heap entries (whose priority no
		// longer matches the vertex's best) are skipped lazily.
		it := r.heapPop()
		u := it.v
		if r.done[u] == r.epoch || it.load != r.bestLoad[u] || it.hops != r.bestHops[u] {
			continue
		}
		if u == req.Dst {
			return r.assemble(req.Src, req.Dst, it.hops, arena)
		}
		r.done[u] = r.epoch
		for i := r.start[u]; i < r.start[u+1]; i++ {
			h := digraph.Vertex(r.head[i])
			if !inSet(anc, h) || r.done[h] == r.epoch {
				continue
			}
			a := digraph.ArcID(r.arc[i])
			if failed && g.ArcFailed(a) {
				continue
			}
			nl := it.load
			if l := t.Load(a) + 1; l > nl {
				nl = l
			}
			nh := it.hops + 1
			if !r.seen(h) || nl < r.bestLoad[h] || (nl == r.bestLoad[h] && nh < r.bestHops[h]) {
				r.bestLoad[h], r.bestHops[h] = nl, nh
				r.mark(h, a)
				r.heapPush(heapItem{nl, nh, h})
			}
		}
	}
	r.noteExhausted()
	return nil, ErrNoRoute{req}
}

// ancestors returns anc(dst), computing it by one reverse DFS over
// InArcs (failed arcs included) into the next ⌈n/64⌉ words of the slab
// the first time dst is asked for since the graph last gained an arc or
// a vertex. The caller has synced the router. The returned set aliases
// the slab, so it is valid until the next call.
func (r *Router) ancestors(dst digraph.Vertex) []uint64 {
	g := r.g
	n := g.NumVertices()
	w := (n + 63) / 64
	if slot := int(r.ancSlot[dst]); slot != 0 {
		return r.ancSlab[(slot-1)*w : slot*w]
	}
	off := len(r.ancSlab)
	if cap(r.ancSlab) < off+w {
		// Double by hand, capped at the n sets the slab can hold
		// (off ≤ (n-1)·w, so the new capacity fits one more set):
		// append's 1.25x growth past 256 elements would allocate ~5x
		// the final slab across its copies.
		slab := make([]uint64, off, min(max(2*cap(r.ancSlab), 64*w), n*w))
		copy(slab, r.ancSlab)
		r.ancSlab = slab
	}
	r.ancSlab = r.ancSlab[:off+w]
	clear(r.ancSlab[off:])
	r.ancSlot[dst] = int32(off/w + 1)
	set := r.ancSlab[off : off+w]
	set[dst>>6] |= 1 << (dst & 63)
	stack := append(r.queue[:0], dst)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.InArcs(v) {
			if u := g.Arc(a).Tail; !inSet(set, u) {
				set[u>>6] |= 1 << (u & 63)
				stack = append(stack, u)
			}
		}
	}
	r.queue = stack[:0]
	return set
}

// inSet reports whether v is in the vertex bitset set.
func inSet(set []uint64, v digraph.Vertex) bool { return set[v>>6]&(1<<(v&63)) != 0 }

// Multicast routes a one-to-many instance: dipaths from origin to every
// destination along a BFS tree, so the routes form an out-arborescence.
func (r *Router) Multicast(origin digraph.Vertex, dests []digraph.Vertex) (dipath.Family, error) {
	g := r.g
	n := g.NumVertices()
	if origin < 0 || int(origin) >= n {
		return nil, fmt.Errorf("route: origin out of range")
	}
	r.bfs(origin, -1)
	fam := make(dipath.Family, 0, len(dests))
	for _, d := range dests {
		if d < 0 || int(d) >= n || !r.seen(d) {
			return nil, ErrNoRoute{Request{origin, d}}
		}
		var p *dipath.Path
		var err error
		if d == origin {
			p, err = dipath.FromVertices(g, origin)
		} else {
			p, err = r.assemble(origin, d, -1, nil)
		}
		if err != nil {
			return nil, err
		}
		fam = append(fam, p)
	}
	return fam, nil
}

// AllToAll returns the request list {(u,v) : u != v, v reachable from u},
// reusing the router's BFS state for the n reachability sweeps.
func (r *Router) AllToAll() []Request {
	n := r.g.NumVertices()
	var reqs []Request
	for u := 0; u < n; u++ {
		src := digraph.Vertex(u)
		r.bfs(src, -1)
		for v := 0; v < n; v++ {
			if v != u && r.seen(digraph.Vertex(v)) {
				reqs = append(reqs, Request{src, digraph.Vertex(v)})
			}
		}
	}
	return reqs
}

// SaturatedRequest returns the first request of pool whose shortest
// route crosses an arc carrying loads[a] >= w — the probe the admission
// reject-cost benchmarks re-offer: together with the w paths on that
// arc it forms a (w+1)-clique in the conflict graph, so every admission
// path must keep rejecting it. ok is false when the offered load never
// saturated an arc of a routable pool entry.
func SaturatedRequest(g *digraph.Digraph, loads []int, pool []Request, w int) (Request, bool) {
	r := NewRouter(g)
	for _, req := range pool {
		p, err := r.ShortestPath(req.Src, req.Dst)
		if err != nil {
			continue
		}
		for _, a := range p.Arcs() {
			if loads[a] >= w {
				return req, true
			}
		}
	}
	return Request{}, false
}
