// Package gen constructs the instances of the Bermond–Cosnard paper —
// every figure is a (graph, dipath family) pair with a provable (π, w) —
// together with random generators for DAG classes (general, internal-
// cycle-free, UPP, arborescences) and dipath families used by
// the property tests and the experiment harness.
//
// All generators are deterministic given their seed.
package gen

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"wavedag/internal/dag"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/upp"
)

// Fig1Staircase builds the pathological example of Figure 1 for k >= 2
// requests: k dipaths that pairwise share an arc (so the conflict graph is
// K_k and w = k) while every arc carries at most 2 dipaths (π = 2).
//
// The construction realises the paper's staircase combinatorially: for
// every pair i < j there is a dedicated "meeting" arc e_{ij} traversed by
// exactly dipaths i and j; dipath i traverses its meeting arcs in the
// DAG-consistent order e_{1i}, …, e_{i-1,i}, e_{i,i+1}, …, e_{i,k},
// with private connector arcs in between.
func Fig1Staircase(k int) (*digraph.Digraph, dipath.Family, error) {
	if k < 2 {
		return nil, nil, fmt.Errorf("gen: staircase needs k >= 2, got %d", k)
	}
	g := digraph.New(0)
	// Meeting gadget per pair {i<j}: u_{ij} -> v_{ij}.
	type gadget struct{ u, v digraph.Vertex }
	gadgets := make(map[[2]int]gadget)
	// Create gadgets in increasing i+j order so vertex ids follow a
	// topological order (connectors always go to strictly larger i+j).
	for s := 3; s <= 2*k-1; s++ {
		for i := 1; i < k+1; i++ {
			j := s - i
			if j <= i || j > k {
				continue
			}
			u := g.AddVertex(fmt.Sprintf("u%d_%d", i, j))
			v := g.AddVertex(fmt.Sprintf("v%d_%d", i, j))
			g.MustAddArc(u, v)
			gadgets[[2]int{i, j}] = gadget{u, v}
		}
	}
	var fam dipath.Family
	for i := 1; i <= k; i++ {
		// Meeting arcs of dipath i, in traversal order.
		var order [][2]int
		for j := 1; j < i; j++ {
			order = append(order, [2]int{j, i})
		}
		for j := i + 1; j <= k; j++ {
			order = append(order, [2]int{i, j})
		}
		verts := []digraph.Vertex{}
		for t, key := range order {
			gd := gadgets[key]
			if t > 0 {
				// Private connector from previous gadget's head.
				prev := gadgets[order[t-1]]
				g.MustAddArc(prev.v, gd.u)
			}
			if t == 0 {
				verts = append(verts, gd.u)
			}
			verts = append(verts, gd.u, gd.v)
		}
		// Dedup the doubled first u.
		verts = verts[1:]
		p, err := dipath.FromVertices(g, verts...)
		if err != nil {
			return nil, nil, fmt.Errorf("gen: staircase path %d: %w", i, err)
		}
		fam = append(fam, p)
	}
	return g, fam, nil
}

// Fig3 builds the example of Figure 3: a DAG with a single internal cycle
// (the triangle b, c, d) and 5 dipaths with π = 2 whose conflict graph is
// the 5-cycle, hence w = 3.
func Fig3() (*digraph.Digraph, dipath.Family) {
	g := digraph.New(0)
	a := g.AddVertex("a1")
	b := g.AddVertex("b1")
	c := g.AddVertex("c1")
	d := g.AddVertex("d1")
	e := g.AddVertex("e1")
	g.MustAddArc(a, b)
	g.MustAddArc(b, c)
	g.MustAddArc(c, d)
	g.MustAddArc(d, e)
	g.MustAddArc(b, d) // the second b->d route closing the internal cycle
	fam := dipath.Family{
		dipath.MustFromVertices(g, a, b, c),
		dipath.MustFromVertices(g, b, c, d),
		dipath.MustFromVertices(g, c, d, e),
		dipath.MustFromVertices(g, b, d, e),
		dipath.MustFromVertices(g, a, b, d),
	}
	return g, fam
}

// InternalCycleGadget builds the Theorem 2 construction (Figure 5) for
// k >= 2: an UPP-DAG whose unique internal cycle has 2k direction
// changes, and a family of 2k+1 dipaths with π = 2 whose conflict graph
// is the odd cycle C_{2k+1}, hence w = 3.
//
// Vertices: a_i, b_i, c_i, d_i (i = 1..k); arcs a_i->b_i, b_i->c_i,
// b_i->c_{i-1}, c_i->d_i (indices mod k). Family: {a1 b1 c1; b1 c1 d1} ∪
// {a_i b_i c_{i-1} d_{i-1} : i = 1..k} ∪ {a_i b_i c_i d_i : i = 2..k}.
func InternalCycleGadget(k int) (*digraph.Digraph, dipath.Family, error) {
	if k < 2 {
		return nil, nil, fmt.Errorf("gen: internal cycle gadget needs k >= 2, got %d", k)
	}
	g := digraph.New(0)
	a := make([]digraph.Vertex, k)
	b := make([]digraph.Vertex, k)
	c := make([]digraph.Vertex, k)
	d := make([]digraph.Vertex, k)
	for i := 0; i < k; i++ {
		a[i] = g.AddVertex(fmt.Sprintf("a%d", i+1))
		b[i] = g.AddVertex(fmt.Sprintf("b%d", i+1))
		c[i] = g.AddVertex(fmt.Sprintf("c%d", i+1))
		d[i] = g.AddVertex(fmt.Sprintf("d%d", i+1))
	}
	prev := func(i int) int { return (i + k - 1) % k }
	for i := 0; i < k; i++ {
		g.MustAddArc(a[i], b[i])
		g.MustAddArc(b[i], c[i])
		g.MustAddArc(b[i], c[prev(i)])
		g.MustAddArc(c[i], d[i])
	}
	fam := dipath.Family{
		dipath.MustFromVertices(g, a[0], b[0], c[0]),
		dipath.MustFromVertices(g, b[0], c[0], d[0]),
	}
	for i := 0; i < k; i++ {
		fam = append(fam, dipath.MustFromVertices(g, a[i], b[i], c[prev(i)], d[prev(i)]))
	}
	for i := 1; i < k; i++ {
		fam = append(fam, dipath.MustFromVertices(g, a[i], b[i], c[i], d[i]))
	}
	return g, fam, nil
}

// Havet builds Frédéric Havet's tightness example for Theorem 7
// (Figure 9): an UPP-DAG with exactly one internal cycle and 8 dipaths
// with π = 2 whose conflict graph is the 8-cycle plus antipodal chords
// (the Wagner graph), with independence number 3, hence w = 3 and —
// after replicating every dipath h times — π = 2h, w = ⌈8h/3⌉ = ⌈4π/3⌉.
func Havet() (*digraph.Digraph, dipath.Family) {
	g := digraph.New(0)
	a1 := g.AddVertex("a1")
	b1 := g.AddVertex("b1")
	c1 := g.AddVertex("c1")
	d1 := g.AddVertex("d1")
	a2 := g.AddVertex("a2")
	b2 := g.AddVertex("b2")
	c2 := g.AddVertex("c2")
	d2 := g.AddVertex("d2")
	a1p := g.AddVertex("a1'")
	a2p := g.AddVertex("a2'")
	d1p := g.AddVertex("d1'")
	d2p := g.AddVertex("d2'")
	g.MustAddArc(a1, b1)
	g.MustAddArc(b1, c1)
	g.MustAddArc(c1, d1)
	g.MustAddArc(a2, b2)
	g.MustAddArc(b2, c2)
	g.MustAddArc(c2, d2)
	g.MustAddArc(b1, c2)
	g.MustAddArc(b2, c1)
	g.MustAddArc(a1p, b1)
	g.MustAddArc(a2p, b2)
	g.MustAddArc(c1, d1p)
	g.MustAddArc(c2, d2p)
	// The prime rotation matters: pairing primed starts with primed ends
	// everywhere would give the bipartite cube graph (χ = 2) instead of
	// the Wagner graph (χ = 3).
	fam := dipath.Family{
		dipath.MustFromVertices(g, a1, b1, c1, d1p),
		dipath.MustFromVertices(g, a1, b1, c2, d2),
		dipath.MustFromVertices(g, a2, b2, c2, d2),
		dipath.MustFromVertices(g, a2, b2, c1, d1),
		dipath.MustFromVertices(g, a1p, b1, c1, d1),
		dipath.MustFromVertices(g, a1p, b1, c2, d2p),
		dipath.MustFromVertices(g, a2p, b2, c2, d2p),
		dipath.MustFromVertices(g, a2p, b2, c1, d1p),
	}
	return g, fam
}

// Instance bundles a digraph with a dipath family over it; generators
// that produce both return an Instance-compatible pair.
type Instance struct {
	G *digraph.Digraph
	F dipath.Family
}

// DisjointUnion glues the given (graph, family) instances side by side
// with no connecting arcs; the loads, conflicts and internal cycles are
// the unions of the parts. Used by the multi-cycle experiment E10.
func DisjointUnion(parts ...Instance) (*digraph.Digraph, dipath.Family) {
	g := digraph.New(0)
	var fam dipath.Family
	for _, part := range parts {
		offset := digraph.Vertex(g.NumVertices())
		for v := 0; v < part.G.NumVertices(); v++ {
			g.AddVertex(part.G.Label(digraph.Vertex(v)))
		}
		for _, a := range part.G.Arcs() {
			g.MustAddArc(a.Tail+offset, a.Head+offset)
		}
		for _, p := range part.F {
			verts := make([]digraph.Vertex, p.NumVertices())
			for i, v := range p.Vertices() {
				verts[i] = v + offset
			}
			fam = append(fam, dipath.MustFromVertices(g, verts...))
		}
	}
	return g, fam
}

// GlueChain glues the parts into one weakly connected "giant" component
// by identifying the first sink of each part with the first source of
// the next. Parts meet at single vertices, so every glue point is a cut
// vertex of the result: PartitionComponents cannot split the glued
// graph, but PartitionRegions decomposes it into arc-disjoint regions
// no larger than the parts — the workload family the two-level sharded
// engine exists for. The result stays a DAG (all arcs respect the part
// order), though glue vertices become internal, so parts' cycles
// through them turn into internal cycles of the whole.
//
// It returns the glued graph and, per part, the global identifiers of
// that part's vertices (consecutive parts share their glue vertex, so
// the slices overlap in one element). Parts must each have a source and
// a sink.
func GlueChain(parts ...*digraph.Digraph) (*digraph.Digraph, [][]digraph.Vertex, error) {
	if len(parts) == 0 {
		return nil, nil, fmt.Errorf("gen: GlueChain needs at least one part")
	}
	g := digraph.New(0)
	partVerts := make([][]digraph.Vertex, len(parts))
	glue := digraph.Vertex(-1) // previous part's first sink, in global ids
	for i, part := range parts {
		srcs, sinks := part.Sources(), part.Sinks()
		if len(srcs) == 0 || len(sinks) == 0 {
			return nil, nil, fmt.Errorf("gen: GlueChain part %d needs a source and a sink", i)
		}
		toGlobal := make([]digraph.Vertex, part.NumVertices())
		for v := range toGlobal {
			if i > 0 && digraph.Vertex(v) == srcs[0] {
				toGlobal[v] = glue // identify with the previous part's sink
			} else {
				toGlobal[v] = g.AddVertex(part.Label(digraph.Vertex(v)))
			}
		}
		for _, a := range part.Arcs() {
			g.MustAddArc(toGlobal[a.Tail], toGlobal[a.Head])
		}
		partVerts[i] = toGlobal
		glue = toGlobal[sinks[0]]
	}
	return g, partVerts, nil
}

// LocalityRequestPool draws a pool of routable (src, dst) pairs over g
// with a controlled locality mix: about frac of the entries have both
// endpoints inside one vertex group, the rest cross groups. Groups
// typically come from GlueChain's part lists, making frac the fraction
// of region-confined traffic a two-level sharded engine can fan out —
// the locality axis of the giant-component churn benchmarks. If either
// class is empty the other fills the pool; a graph with no routable
// pairs at all, or a size <= 0, yields an empty pool.
func LocalityRequestPool(g *digraph.Digraph, groups [][]digraph.Vertex, frac float64, size int, seed int64) [][2]digraph.Vertex {
	all := reachablePairs(g)
	if all.len() == 0 {
		return nil
	}
	// together.row(u): the vertices sharing a group with u (glue
	// vertices belong to two).
	together := newBitRows(g.NumVertices())
	group := make([]uint64, together.words)
	for _, vs := range groups {
		clear(group)
		for _, v := range vs {
			setBit(group, v)
		}
		for _, v := range vs {
			orInto(together.row(int(v)), group)
		}
	}
	local := all.intersect(together.row)
	cross := all.minus(local)
	rng := rand.New(rand.NewSource(seed))
	pool := make([][2]digraph.Vertex, 0, max(size, 0))
	for i := 0; i < size; i++ {
		pick := local
		if local.len() == 0 || (rng.Float64() >= frac && cross.len() > 0) {
			pick = cross
		}
		pool = append(pool, pick.at(rng.Intn(pick.len())))
	}
	return pool
}

// HotspotRequestPool draws a pool of routable (src, dst) pairs whose
// traffic concentrates on a few hot endpoints: about hotFrac of the
// entries have both endpoints in the hot set — the hotCount vertices
// with the largest combined reach (vertices reachable from them plus
// vertices that reach them), i.e. the ones whose pairs funnel through
// the topology's spine — and the rest are drawn uniformly from all
// routable pairs. Replaying such a pool against a finite wavelength
// budget drives the hot arcs past any budget long before the cold ones:
// the overload regime the admission-control benchmarks sweep. The hot
// set is fixed for the whole pool: the concentration does not move as
// the pool replays. If too few hot pairs are routable, or hotCount <= 0, the uniform class fills
// the pool; a graph with no routable pairs, or a size <= 0, yields an
// empty pool.
func HotspotRequestPool(g *digraph.Digraph, hotCount int, hotFrac float64, size int, seed int64) [][2]digraph.Vertex {
	n := g.NumVertices()
	all := reachablePairs(g)
	if all.len() == 0 {
		return nil
	}
	// reach[v]: the vertices v reaches plus the vertices reaching v.
	reach := make([]int, n)
	for u := 0; u < n; u++ {
		reach[u] += all.prefix[u+1] - all.prefix[u]
		for i, w := range all.row(u) {
			for ; w != 0; w &= w - 1 {
				reach[i*64+bits.TrailingZeros64(w)]++
			}
		}
	}
	// Hot set: top hotCount vertices by combined reach.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := reach[order[a]], reach[order[b]]
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	hotSet := make([]uint64, all.words)
	for _, v := range order[:min(max(hotCount, 0), n)] {
		setBit(hotSet, digraph.Vertex(v))
	}
	hot := all.intersect(func(u int) []uint64 {
		if hasBit(hotSet, digraph.Vertex(u)) {
			return hotSet
		}
		return nil
	})
	rng := rand.New(rand.NewSource(seed))
	pool := make([][2]digraph.Vertex, 0, max(size, 0))
	for i := 0; i < size; i++ {
		pick := all
		if hot.len() > 0 && rng.Float64() < hotFrac {
			pick = hot
		}
		pool = append(pool, pick.at(rng.Intn(pick.len())))
	}
	return pool
}

// RandomDAG returns a DAG on n vertices with m arcs drawn uniformly among
// the forward pairs of the identity topological order (parallel arcs are
// avoided when possible).
func RandomDAG(n, m int, seed int64) *digraph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := digraph.New(n)
	if n < 2 {
		return g
	}
	seen := make(map[[2]int]bool, m)
	maxArcs := n * (n - 1) / 2
	for added := 0; added < m && len(seen) < maxArcs; {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		key := [2]int{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.MustAddArc(digraph.Vertex(u), digraph.Vertex(v))
		added++
	}
	return g
}

// RandomNoInternalCycleDAG returns a DAG with nInternal internal vertices
// (indegree and outdegree both positive), nSources sources and nSinks
// sinks, and no internal cycle: the arcs among internal vertices form a
// random forest, every internal vertex is fed by at least one source-side
// arc and drained by at least one sink-side arc, and extra arcs incident
// to sources and sinks are sprinkled with probability extraP.
//
// The returned graph satisfies Theorem 1's hypothesis by construction:
// the sub-digraph induced on internal vertices is a forest, so no
// internal cycle exists.
func RandomNoInternalCycleDAG(nInternal, nSources, nSinks int, extraP float64, seed int64) (*digraph.Digraph, error) {
	if nInternal < 0 || nSources < 1 || nSinks < 1 {
		return nil, fmt.Errorf("gen: need nInternal >= 0, nSources >= 1, nSinks >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	g := digraph.New(0)
	internal := make([]digraph.Vertex, nInternal)
	for i := range internal {
		internal[i] = g.AddVertex(fmt.Sprintf("i%d", i))
	}
	sources := make([]digraph.Vertex, nSources)
	for i := range sources {
		sources[i] = g.AddVertex(fmt.Sprintf("s%d", i))
	}
	sinks := make([]digraph.Vertex, nSinks)
	for i := range sinks {
		sinks[i] = g.AddVertex(fmt.Sprintf("t%d", i))
	}
	// Random forest on internal vertices; vertex ids double as the
	// topological order, so orient each tree edge low -> high.
	for i := 1; i < nInternal; i++ {
		if rng.Float64() < 0.8 {
			j := rng.Intn(i)
			g.MustAddArc(internal[j], internal[i])
		}
	}
	// Make every internal vertex genuinely internal.
	for _, v := range internal {
		if g.InDegree(v) == 0 {
			g.MustAddArc(sources[rng.Intn(nSources)], v)
		}
		if g.OutDegree(v) == 0 {
			g.MustAddArc(v, sinks[rng.Intn(nSinks)])
		}
	}
	// Extra arcs incident to sources and sinks: they can never lie on an
	// internal cycle because one endpoint is a source or a sink of g.
	for _, s := range sources {
		for _, v := range internal {
			if rng.Float64() < extraP {
				if _, dup := g.ArcBetween(s, v); !dup {
					g.MustAddArc(s, v)
				}
			}
		}
		for _, t := range sinks {
			if rng.Float64() < extraP {
				if _, dup := g.ArcBetween(s, t); !dup {
					g.MustAddArc(s, t)
				}
			}
		}
	}
	for _, v := range internal {
		for _, t := range sinks {
			if rng.Float64() < extraP {
				if _, dup := g.ArcBetween(v, t); !dup {
					g.MustAddArc(v, t)
				}
			}
		}
	}
	return g, nil
}

// RandomUPPDAG grows a DAG on n vertices by attempting `attempts` random
// forward arcs and keeping those that preserve the unique-dipath
// property. The result is always UPP.
func RandomUPPDAG(n, attempts int, seed int64) *digraph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := digraph.New(n)
	if n < 2 {
		return g
	}
	for t := 0; t < attempts; t++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		if _, dup := g.ArcBetween(digraph.Vertex(u), digraph.Vertex(v)); dup {
			continue
		}
		// A new arc u->v preserves UPP iff no dipath u⇝v exists yet and,
		// for every pair (x, y) with x⇝u and v⇝y, no dipath x⇝y exists.
		counts, err := upp.PathCounts(g)
		if err != nil {
			panic(err) // forward arcs cannot create directed cycles
		}
		if counts[u][v] > 0 {
			continue
		}
		ok := true
		for x := 0; x <= u && ok; x++ {
			if counts[x][u] == 0 {
				continue
			}
			for y := v; y < n; y++ {
				if counts[v][y] > 0 && counts[x][y] > 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			g.MustAddArc(digraph.Vertex(u), digraph.Vertex(v))
		}
	}
	return g
}

// RandomArborescence returns a uniformly random recursive out-tree on n
// vertices rooted at vertex 0 (each vertex i > 0 picks a parent < i).
func RandomArborescence(n int, seed int64) *digraph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := digraph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddArc(digraph.Vertex(rng.Intn(i)), digraph.Vertex(i))
	}
	return g
}

// RandomWalkFamily samples `count` dipaths of g: each starts at a random
// vertex and extends by random out-arcs for up to maxLen arcs. Paths of
// zero arcs are discarded, so the family may be smaller than count when g
// has isolated vertices.
func RandomWalkFamily(g *digraph.Digraph, count, maxLen int, seed int64) dipath.Family {
	rng := rand.New(rand.NewSource(seed))
	var fam dipath.Family
	n := g.NumVertices()
	if n == 0 || maxLen < 1 {
		return fam
	}
	for t := 0; t < count; t++ {
		v := digraph.Vertex(rng.Intn(n))
		verts := []digraph.Vertex{v}
		for len(verts) <= maxLen {
			outs := g.OutArcs(verts[len(verts)-1])
			if len(outs) == 0 {
				break
			}
			a := g.Arc(outs[rng.Intn(len(outs))])
			verts = append(verts, a.Head)
		}
		if len(verts) < 2 {
			continue
		}
		fam = append(fam, dipath.MustFromVertices(g, verts...))
	}
	return fam
}

// AllSourceSinkFamily routes one dipath per (source, sink) pair of an UPP
// DAG when the pair is connected; it errors when g is not UPP.
func AllSourceSinkFamily(g *digraph.Digraph) (dipath.Family, error) {
	r, err := upp.NewRouter(g)
	if err != nil {
		return nil, err
	}
	var fam dipath.Family
	for _, s := range g.Sources() {
		for _, t := range g.Sinks() {
			if p, ok := r.Route(s, t); ok && p.NumArcs() > 0 {
				fam = append(fam, p)
			}
		}
	}
	return fam, nil
}

// SubpathFamily samples `count` random subpaths of random maximal dipaths
// of the DAG g: a workload of "requests already routed", exercising
// arbitrary overlap patterns. All returned paths have at least one arc.
func SubpathFamily(g *digraph.Digraph, count int, seed int64) (dipath.Family, error) {
	if !dag.IsDAG(g) {
		return nil, dag.ErrCyclic
	}
	rng := rand.New(rand.NewSource(seed))
	var fam dipath.Family
	n := g.NumVertices()
	if n == 0 {
		return fam, nil
	}
	for t := 0; t < count*4 && len(fam) < count; t++ {
		v := digraph.Vertex(rng.Intn(n))
		verts := []digraph.Vertex{v}
		for {
			outs := g.OutArcs(verts[len(verts)-1])
			if len(outs) == 0 {
				break
			}
			verts = append(verts, g.Arc(outs[rng.Intn(len(outs))]).Head)
		}
		if len(verts) < 2 {
			continue
		}
		i := rng.Intn(len(verts) - 1)
		j := i + 1 + rng.Intn(len(verts)-i-1)
		fam = append(fam, dipath.MustFromVertices(g, verts[i:j+1]...))
	}
	return fam, nil
}
