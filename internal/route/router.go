package route

import (
	"errors"
	"fmt"
	"math/bits"

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
// Breadth-first searches scan a private copy of the out-adjacency in
// compressed sparse rows (see the start field), and the searches for
// one destination (ShortestPath, MinLoadPath) are pruned to its
// ancestors — the vertices with a dipath to it over every arc, failed
// or not — kept as one lazily built bitset per destination in a shared
// slab (see the ancSlot field and MinLoadPath). A set's reverse DFS
// takes the sets already built whole instead of walking through them,
// and the batch calls build their destinations' sets up front in
// topological order (PrimeAncestors), so a batch's sets cost about one
// sweep of the in-arcs. The set is the
// router's only reachability filter: a source outside it is rejected in
// O(1), and a pair a cut disconnected costs one search bounded by the
// set. The min-load search does not test heads one arc at a time: it
// reads a settled vertex's out-neighbours as a sparse bitset (see the
// nbr field) and ANDs it with the set a word of 64 vertex IDs at a
// time, so it touches only the arcs into anc(dst). The CSR, the
// neighbour words (built by the first min-load search) and the sets are
// rebuilt when the graph gains an arc or a vertex; the CSR and the
// words take at most 28 bytes per arc and 8 per vertex, and the sets
// ⌈n/64⌉ words per distinct destination. The batch calls ShortestPaths
// and MinLoadSequential carve the family they return from one
// dipath.Arena, so a batch costs a handful of path allocations, not
// three per path; other calls allocate each path on its own unless the
// caller passes an arena (ShortestPathIn, MinLoadPathIn).
//
// A Router is not safe for concurrent use; create one per goroutine.
type Router struct {
	g *digraph.Digraph

	// The out-adjacency of g in compressed sparse rows: the out-arcs of
	// v are arc[start[v]:start[v+1]], in OutArcs order, and head[i] is
	// the head of arc[i]. A search scans these two contiguous runs
	// instead of chasing g.OutArcs(v) and a 24-byte Arc per arc. The
	// order is OutArcs order, so BFS order and the min-load choice among
	// parallel arcs are those of a scan of g. Cuts are not copied;
	// searches read them through g.ArcFailed.
	start []int32
	head  []int32
	arc   []int32

	// The out-neighbours of v as a sparse bitset, for the min-load
	// search: nbr[nbrStart[v]:nbrStart[v+1]] are the non-zero words of
	// v's out-neighbour set, in word order; nbrStart is empty until
	// the first min-load search after a sync. The heads of one word map,
	// in vertex order, onto adj[at:]: adj holds, per distinct head of
	// v, the ID of the only arc v→head, or the complement ^ID of one of
	// them when v has parallel arcs to that head (the search then
	// relaxes them all in CSR order from v's CSR row).
	nbrStart []int32
	nbr      []nbrWord
	adj      []int32

	// ancSlot[d], when non-zero, locates the ancestor set of
	// destination d: words [(ancSlot[d]-1)·w, ancSlot[d]·w) of ancSlab,
	// w = ⌈n/64⌉, a bitset marking d and every vertex with a dipath to d
	// over every arc, failed or not. A set is built the first time d is
	// asked for (or primed with its batch) and appended to the slab, by
	// a reverse DFS that ORs in the sets of the vertices it meets that
	// already have one. Only destinations get sets, so the slab fills
	// lazily up to n·w words and is never allocated whole (on a large
	// graph that would be gigabytes). Cuts and restorations only
	// shrink or regrow live reachability inside a set, so it stays a
	// valid superset across them; only added arcs or vertices can
	// create an ancestor it misses.
	ancSlot []int32
	ancSlab []uint64
	// Scratch of PrimeAncestors: in-degrees and Kahn's order.
	indeg, order []int32

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
	// routing, packed by label, valid where stamp[v] == epoch; v is
	// settled where done[v] == epoch.
	best []uint64
	done []int
	heap []heapItem // reusable binary heap (lazy deletion)
}

// nbrWord is one non-zero 64-vertex word of a vertex's out-neighbour
// set: the heads word·64 + b for every set bit b of mask, whose arcs
// are adj[at], adj[at+1], … in that order.
type nbrWord struct {
	mask     uint64
	word, at int32
}

// heapItem is a (priority, vertex) entry of the bottleneck Dijkstra
// heap; prio is the entry's (load, hops) label packed by label.
type heapItem struct {
	prio uint64
	v    digraph.Vertex
}

// label packs a (load, hops) label into one word, load in the high 32
// bits, so that one unsigned comparison orders labels
// lexicographically. A load counts the paths on one arc and hops are
// fewer than the vertices, so both fit in 32 bits.
func label(load, hops int) uint64 { return uint64(load)<<32 | uint64(hops) }

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
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.v < b.v // deterministic order among equal priorities
}

// NewRouter returns a router over g. Its search state is sized at the
// first search and grows with g.
func NewRouter(g *digraph.Digraph) *Router { return &Router{g: g} }

// Graph returns the digraph the router routes over.
func (r *Router) Graph() *digraph.Digraph { return r.g }

// sync rebuilds the CSR adjacency and drops the neighbour words and
// the ancestor sets when the graph has gained an arc or a vertex since
// they were built (see the builtArcs field). Every search calls it
// first.
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
	r.nbrStart = r.nbrStart[:0]
	r.ancSlot = grow(r.ancSlot, n)
	clear(r.ancSlot)
	r.ancSlab = r.ancSlab[:0]
}

// buildWords lays out the neighbour words (see the nbr field) of the
// synced graph. The first min-load search after a sync calls it, so a
// router that only runs breadth-first searches never builds them.
func (r *Router) buildWords() {
	g := r.g
	n, m := g.NumVertices(), g.NumArcs()
	// One sweep over the heads in vertex order hands each tail u its
	// distinct heads in vertex order, into adj from start[u] on; a
	// second arc u→h complements the entry instead. nbrStart serves as
	// the fill cursor until the words are laid out.
	r.adj = grow(r.adj, m)
	r.nbrStart = grow(r.nbrStart, n+1)
	fill := r.nbrStart[:n]
	copy(fill, r.start[:n])
	words := 0
	for h := 0; h < n; h++ {
		for _, a := range g.InArcs(digraph.Vertex(h)) {
			u := g.Arc(a).Tail
			f := fill[u]
			if f > r.start[u] {
				prev := g.Arc(adjArc(r.adj[f-1])).Head
				if prev == digraph.Vertex(h) {
					r.adj[f-1] = ^int32(adjArc(r.adj[f-1]))
					continue
				}
				if prev>>6 != digraph.Vertex(h)>>6 {
					words++
				}
			} else {
				words++
			}
			r.adj[f] = int32(a)
			fill[u] = f + 1
		}
	}
	if cap(r.nbr) < words {
		r.nbr = make([]nbrWord, 0, words)
	}
	r.nbr = r.nbr[:0]
	for u := 0; u < n; u++ {
		end := fill[u] // read before nbrStart[u], its alias, is set
		r.nbrStart[u] = int32(len(r.nbr))
		for k := r.start[u]; k < end; k++ {
			h := g.Arc(adjArc(r.adj[k])).Head
			if w := int32(h >> 6); len(r.nbr) == int(r.nbrStart[u]) || r.nbr[len(r.nbr)-1].word != w {
				r.nbr = append(r.nbr, nbrWord{word: w, at: k})
			}
			r.nbr[len(r.nbr)-1].mask |= 1 << (h & 63)
		}
	}
	r.nbrStart[n] = int32(len(r.nbr))
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

// adjArc returns the arc of an adj entry: its ID, or, for a head
// reached by parallel arcs, the complemented ID of one of them.
func adjArc(x int32) digraph.ArcID {
	if x < 0 {
		x = ^x
	}
	return digraph.ArcID(x)
}

func (r *Router) seen(v digraph.Vertex) bool { return r.stamp[v] == r.epoch }

func (r *Router) mark(v digraph.Vertex, via digraph.ArcID) {
	r.stamp[v] = r.epoch
	r.prevArc[v] = via
}

// bfs runs a breadth-first search from src over the live arcs, marking
// every reached vertex with its predecessor arc. With a nil anc it
// sweeps everything src reaches; otherwise anc is the ancestor set of
// dst, heads outside it are skipped, and the search stops as soon as
// dst is marked. It reports whether dst was reached. The caller has
// synced the router.
//
// The pruned search marks dst with the predecessor arc the full one
// would: every tail of an arc into an ancestor is itself an ancestor,
// so the pruned queue is the full queue with the non-ancestors taken
// out, and each ancestor is first reached from the same vertex over
// the same arc.
func (r *Router) bfs(src, dst digraph.Vertex, anc []uint64) bool {
	g := r.g
	failed := g.NumFailedArcs() > 0
	r.visit()
	r.mark(src, -1)
	r.queue = append(r.queue, src)
	for next := 0; next < len(r.queue); next++ {
		v := r.queue[next]
		for i := r.start[v]; i < r.start[v+1]; i++ {
			h := digraph.Vertex(r.head[i])
			if r.seen(h) || (anc != nil && !inSet(anc, h)) {
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
// to the returned path. Like MinLoadPath it is pruned to anc(dst): a
// source outside it is rejected without a search.
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
	r.sync()
	anc := r.ancestors(dst)
	if inSet(anc, src) && r.bfs(src, dst, anc) {
		return r.assemble(src, dst, -1, arena)
	}
	return nil, ErrNoRoute{Request{src, dst}}
}

// assemble rebuilds the dipath dst←src (src ≠ dst) from the epoch-valid
// predecessor chain, carving it from arena (nil: allocated on its own).
// hops is the chain's length when the search knows it (the min-load
// hop label), or negative, in which case a first walk counts it. One
// backward walk checks the chain and fills the path's arcs and
// vertices together; consecutive predecessor arcs share their vertex
// by construction, so the path needs no second chain check.
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
	p, arcs, vertices := arena.Carve(hops)
	v := dst
	vertices[hops] = v
	for i := hops - 1; i >= 0; i-- {
		a := r.prevArc[v]
		if !r.seen(v) || a < 0 {
			return nil, errBrokenChain
		}
		arcs[i] = a
		v = g.Arc(a).Tail
		vertices[i] = v
	}
	if v != src {
		return nil, errBrokenChain
	}
	return p, nil
}

var errBrokenChain = errors.New("route: internal error: broken predecessor chain")

// ShortestPaths routes every request by shortest dipath, reusing the
// router's state across requests; it fails on the first unroutable
// request. The returned paths share storage (one dipath.Arena per call).
func (r *Router) ShortestPaths(reqs []Request) (dipath.Family, error) {
	r.PrimeAncestors(reqs)
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
	r.PrimeAncestors(reqs)
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
// without a search, and a settled vertex relaxes only its arcs into
// it, found by ANDing its out-neighbour words with the set (see the
// nbr field). The returned dipath is the one the unpruned search would
// return, arc for arc: a vertex outside anc(dst) has no arc into
// anc(dst), so it never relaxes a kept vertex; kept vertices get the
// same labels and predecessors and settle in the same (load, hops,
// vertex) order. The heads of one settled vertex are relaxed in vertex
// order rather than CSR order, which changes nothing: relaxing one
// head never touches another's label, the heap pops by (load, hops,
// vertex) whatever the push order, and the parallel arcs to one head
// are still relaxed in CSR order.
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
	r.sync()
	if len(r.nbrStart) == 0 {
		r.buildWords()
	}
	anc := r.ancestors(req.Dst)
	if !inSet(anc, req.Src) {
		// No dipath to dst even over failed arcs.
		return nil, ErrNoRoute{req}
	}
	failed := g.NumFailedArcs() > 0
	r.visit() // reuse the epoch-stamped prevArc as the predecessor store
	r.best = grow(r.best, n)
	r.done = grow(r.done, n)
	r.mark(req.Src, -1)
	r.best[req.Src] = 0
	r.heap = r.heap[:0]
	r.heapPush(heapItem{0, req.Src})
	for len(r.heap) > 0 {
		// Extract the unfinished vertex with the lexicographically
		// smallest (load, hops); stale heap entries (whose priority no
		// longer matches the vertex's best) are skipped lazily.
		it := r.heapPop()
		u := it.v
		if r.done[u] == r.epoch || it.prio != r.best[u] {
			continue
		}
		if u == req.Dst {
			return r.assemble(req.Src, req.Dst, int(uint32(it.prio)), arena)
		}
		r.done[u] = r.epoch
		for _, e := range r.nbr[r.nbrStart[u]:r.nbrStart[u+1]] {
			for hits := e.mask & anc[e.word]; hits != 0; hits &= hits - 1 {
				b := bits.TrailingZeros64(hits)
				h := digraph.Vertex(e.word)<<6 | digraph.Vertex(b)
				if r.done[h] == r.epoch {
					continue
				}
				x := r.adj[e.at+int32(bits.OnesCount64(e.mask&(1<<b-1)))]
				if x >= 0 {
					r.relax(it, h, digraph.ArcID(x), t, failed)
					continue
				}
				for i := r.start[u]; i < r.start[u+1]; i++ {
					if digraph.Vertex(r.head[i]) == h {
						r.relax(it, h, digraph.ArcID(r.arc[i]), t, failed)
					}
				}
			}
		}
	}
	return nil, ErrNoRoute{req}
}

// relax offers h the label of the settled entry it extended by arc a,
// unless a is cut: h takes it when it is unlabelled or the label is
// lexicographically smaller in (load, hops).
func (r *Router) relax(it heapItem, h digraph.Vertex, a digraph.ArcID, t *load.Tracker, failed bool) {
	if failed && r.g.ArcFailed(a) {
		return
	}
	nl := int(it.prio >> 32)
	if l := t.Load(a) + 1; l > nl {
		nl = l
	}
	nb := label(nl, int(uint32(it.prio))+1)
	if !r.seen(h) || nb < r.best[h] {
		r.best[h] = nb
		r.mark(h, a)
		r.heapPush(heapItem{nb, h})
	}
}

// ancestors returns anc(dst), building it the first time dst is asked
// for since the graph last gained an arc or a vertex into the next
// ⌈n/64⌉ words of the slab. The build is a reverse DFS over InArcs
// (failed arcs included) that stops at every vertex u whose set is
// already built and ORs anc(u) in whole: u ∈ anc(dst) implies
// anc(u) ⊆ anc(dst) in any digraph, so the set is the one a plain
// reverse DFS builds. PrimeAncestors builds a batch's sets in an order
// that makes most of that reuse hit. The caller has synced the router.
// The returned set aliases the slab, so it is valid until the next
// call.
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
			u := g.Arc(a).Tail
			if inSet(set, u) {
				continue
			}
			if slot := int(r.ancSlot[u]); slot != 0 {
				for i, x := range r.ancSlab[(slot-1)*w : slot*w] {
					set[i] |= x
				}
				continue
			}
			set[u>>6] |= 1 << (u & 63)
			stack = append(stack, u)
		}
	}
	r.queue = stack[:0]
	return set
}

// PrimeAncestors builds the ancestor sets of the distinct destinations
// of reqs that later searches would build one by one, in topological
// order of the destinations (Kahn's order over the CSR; vertices on or
// behind a directed cycle come last, in vertex order). A destination's
// ancestors then come before it, so each reverse DFS stops at the sets
// of the destinations it meets, and a batch whose destinations cover
// most vertices builds its sets in about one sweep of the in-arcs. The
// slab ends up holding the sets the searches would have built, in
// another order: requests with src = dst or a vertex out of range get
// none, as they get none from a search. ShortestPaths and
// MinLoadSequential call it first; a caller that routes a batch request
// by request (a one-shot plan) calls it with the whole batch.
func (r *Router) PrimeAncestors(reqs []Request) {
	if len(reqs) < 2 {
		return // nothing to order
	}
	n := r.g.NumVertices()
	r.sync()
	// Mark the destinations still without a set (stamp == epoch).
	r.visit()
	wanted := 0
	for _, req := range reqs {
		s, d := req.Src, req.Dst
		if s == d || s < 0 || d < 0 || int(s) >= n || int(d) >= n || r.seen(d) || r.ancSlot[d] != 0 {
			continue
		}
		r.mark(d, -1)
		wanted++
	}
	if wanted < 2 {
		return // nothing to order
	}
	// Kahn's order over the CSR, in r.order; indeg counts the in-arcs
	// of each vertex not yet ordered.
	r.indeg = grow(r.indeg, n)
	indeg := r.indeg[:n]
	clear(indeg)
	for _, h := range r.head[:r.start[n]] {
		indeg[h]++
	}
	order := r.order[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, h := range r.head[r.start[v]:r.start[v+1]] {
			if indeg[h]--; indeg[h] == 0 {
				order = append(order, h)
			}
		}
	}
	if len(order) < n {
		for v := 0; v < n; v++ {
			if indeg[v] > 0 {
				order = append(order, int32(v))
			}
		}
	}
	r.order = order
	// Room for exactly the sets about to be built, so the slab is not
	// regrown (and copied) while they are.
	w := (n + 63) / 64
	if need := len(r.ancSlab) + wanted*w; cap(r.ancSlab) < need {
		slab := make([]uint64, len(r.ancSlab), need)
		copy(slab, r.ancSlab)
		r.ancSlab = slab
	}
	for _, v := range order {
		if d := digraph.Vertex(v); r.seen(d) {
			r.ancestors(d)
			if wanted--; wanted == 0 {
				break
			}
		}
	}
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
	r.sync()
	r.bfs(origin, -1, nil)
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
	r.sync()
	for u := 0; u < n; u++ {
		src := digraph.Vertex(u)
		r.bfs(src, -1, nil)
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
