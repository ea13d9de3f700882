package route

import (
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
// Min-load searches are pruned to the ancestors of the destination —
// the vertices with a dipath to it — kept as one lazily computed bitset
// per destination (see the anc field and MinLoadPath).
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

	// anc[d], when non-nil, is the ancestor set of destination d: a
	// bitset of ⌈n/64⌉ words marking d and every vertex with a dipath
	// to d over every arc, failed or not. It is built by one reverse
	// DFS the first time d is asked for, so a router holds at most
	// n·⌈n/64⌉ words of sets. Cuts and restorations only shrink or
	// regrow live reachability inside the set, so it stays a valid
	// superset across them; only added arcs or vertices can create an
	// ancestor it misses. The cache is therefore keyed on the arc and
	// vertex counts the sets were built at (both only ever grow), not
	// on the topology epoch every cut moves.
	anc      [][]uint64
	ancArcs  int
	ancVerts int

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

// ShortestPath returns a dipath from src to dst minimising the number of
// arcs (BFS), identical to the free ShortestPath but allocation-free up
// to the returned path.
func (r *Router) ShortestPath(src, dst digraph.Vertex) (*dipath.Path, error) {
	g := r.g
	n := g.NumVertices()
	if src < 0 || dst < 0 || int(src) >= n || int(dst) >= n {
		return nil, fmt.Errorf("route: vertex out of range")
	}
	if src == dst {
		return dipath.FromVertices(g, src)
	}
	if r.rejectCrossComponent(src, dst) {
		// No dipath crosses weakly connected components: the exhausted
		// BFS below would reach the same answer, in O(component) per
		// call instead of O(1).
		return nil, ErrNoRoute{Request{src, dst}}
	}
	r.visit()
	r.mark(src, -1)
	r.queue = append(r.queue, src)
	for head := 0; head < len(r.queue); head++ {
		v := r.queue[head]
		for _, a := range g.OutArcs(v) {
			if g.ArcFailed(a) {
				continue
			}
			h := g.Arc(a).Head
			if r.seen(h) {
				continue
			}
			r.mark(h, a)
			if h == dst {
				return r.assemble(src, dst)
			}
			r.queue = append(r.queue, h)
		}
	}
	r.noteExhausted()
	return nil, ErrNoRoute{Request{src, dst}}
}

// assemble rebuilds the dipath dst←src (src ≠ dst) from the epoch-valid
// predecessor chain. The chain is checked once, while counting it; the
// path is then wrapped without FromArcs' second chain check, since
// consecutive predecessor arcs share their vertex by construction.
func (r *Router) assemble(src, dst digraph.Vertex) (*dipath.Path, error) {
	g := r.g
	count := 0
	for v := dst; v != src; {
		a := r.prevArc[v]
		if !r.seen(v) || a < 0 {
			return nil, fmt.Errorf("route: internal error: broken predecessor chain")
		}
		count++
		v = g.Arc(a).Tail
	}
	arcs := make([]digraph.ArcID, count)
	for v, i := dst, count-1; v != src; i-- {
		a := r.prevArc[v]
		arcs[i] = a
		v = g.Arc(a).Tail
	}
	return dipath.FromArcsTrusted(g, arcs...), nil
}

// ShortestPaths routes every request by shortest dipath, reusing the
// router's state across requests; it fails on the first unroutable
// request.
func (r *Router) ShortestPaths(reqs []Request) (dipath.Family, error) {
	fam := make(dipath.Family, 0, len(reqs))
	for _, req := range reqs {
		p, err := r.ShortestPath(req.Src, req.Dst)
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
func (r *Router) MinLoadSequential(reqs []Request) (dipath.Family, error) {
	t := load.NewTracker(r.g)
	fam := make(dipath.Family, 0, len(reqs))
	for _, req := range reqs {
		p, err := r.MinLoadPath(req, t)
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
// destination (see the anc field): a source outside it is rejected
// without a search, and a relaxed head outside it is skipped. The
// returned dipath is the one the unpruned search would return, arc for
// arc: a vertex outside anc(dst) has no arc into anc(dst), so it never
// relaxes a kept vertex; kept vertices get the same labels and
// predecessors and settle in the same (load, hops, vertex) order.
func (r *Router) MinLoadPath(req Request, t *load.Tracker) (*dipath.Path, error) {
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
	anc := r.ancestors(req.Dst)
	if !inSet(anc, req.Src) {
		// No dipath to dst even over failed arcs.
		return nil, ErrNoRoute{req}
	}
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
			return r.assemble(req.Src, req.Dst)
		}
		r.done[u] = r.epoch
		for _, a := range g.OutArcs(u) {
			if g.ArcFailed(a) {
				continue
			}
			h := g.Arc(a).Head
			if !inSet(anc, h) || r.done[h] == r.epoch {
				continue
			}
			nl := r.bestLoad[u]
			if t.Load(a)+1 > nl {
				nl = t.Load(a) + 1
			}
			nh := r.bestHops[u] + 1
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
// InArcs (failed arcs included) the first time dst is asked for since
// the graph last gained an arc or a vertex.
func (r *Router) ancestors(dst digraph.Vertex) []uint64 {
	g := r.g
	n := g.NumVertices()
	if r.ancArcs != g.NumArcs() || r.ancVerts != n {
		r.anc = make([][]uint64, n)
		r.ancArcs, r.ancVerts = g.NumArcs(), n
	}
	if set := r.anc[dst]; set != nil {
		return set
	}
	set := make([]uint64, (n+63)/64)
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
	r.anc[dst] = set
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
	r.visit()
	r.mark(origin, -1)
	r.queue = append(r.queue, origin)
	for head := 0; head < len(r.queue); head++ {
		v := r.queue[head]
		for _, a := range g.OutArcs(v) {
			if g.ArcFailed(a) {
				continue
			}
			h := g.Arc(a).Head
			if !r.seen(h) {
				r.mark(h, a)
				r.queue = append(r.queue, h)
			}
		}
	}
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
			p, err = r.assemble(origin, d)
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
	g := r.g
	n := g.NumVertices()
	var reqs []Request
	for u := 0; u < n; u++ {
		src := digraph.Vertex(u)
		r.visit()
		r.mark(src, -1)
		r.queue = append(r.queue, src)
		for head := 0; head < len(r.queue); head++ {
			v := r.queue[head]
			for _, a := range g.OutArcs(v) {
				if g.ArcFailed(a) {
					continue
				}
				h := g.Arc(a).Head
				if !r.seen(h) {
					r.mark(h, a)
					r.queue = append(r.queue, h)
				}
			}
		}
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
