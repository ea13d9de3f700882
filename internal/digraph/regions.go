package digraph

// Regions is the arc-disjoint region decomposition of a digraph: the
// biconnected blocks of the underlying undirected multigraph. Arcs
// partition exactly across regions, and two distinct regions meet in at
// most one vertex (a cut vertex), so the decomposition has the two
// structural properties the two-level sharded provisioning engine is
// built on:
//
//   - confinement: every simple path between two vertices of one region
//     stays inside the region (leaving a block and coming back would
//     revisit the cut vertex it left through), so routing over a region
//     view searches exactly the global search space for such pairs;
//   - arc-disjointness: dipaths confined to different regions of one
//     component can never share an arc — an arc joining two vertices of
//     a region belongs to that region, since two blocks share at most
//     one vertex — so they never conflict and wavelength counts
//     aggregate as a max, exactly like disjoint components.
//
// Region views mirror ComponentView's ordering contract: local vertex i
// is the i-th smallest parent vertex of the region and arcs appear in
// parent arc-identifier order, so BFS and (load, hops, vertex)-tie-broken
// Dijkstra over a view produce exactly the routes the parent would for
// region-confined requests.
type Regions struct {
	// Views holds one compact standalone digraph per region, with the
	// identifier translations back to the parent.
	Views []ComponentView
	// ArcRegion maps every parent arc to its owning region; arcs
	// partition, so this is total.
	ArcRegion []int32
	// LocalArc maps every parent arc to its identifier inside its
	// owning region's view (the partition makes one flat array enough).
	LocalArc []ArcID

	// Per-vertex region memberships, CSR-packed: most vertices belong
	// to exactly one region, cut vertices to several, isolated vertices
	// to none.
	memberOff []int32
	members   []RegionMember
}

// RegionMember is one (region, local identifier) membership of a parent
// vertex.
type RegionMember struct {
	Region int32
	Local  Vertex
}

// NumRegions returns the number of regions.
func (r *Regions) NumRegions() int { return len(r.Views) }

// RegionsOf returns v's memberships. The slice is owned by the Regions
// and must not be mutated; it is empty for isolated vertices.
func (r *Regions) RegionsOf(v Vertex) []RegionMember {
	return r.members[r.memberOff[v]:r.memberOff[v+1]]
}

// IsCutVertex reports whether v belongs to more than one region.
func (r *Regions) IsCutVertex(v Vertex) bool {
	return r.memberOff[v+1]-r.memberOff[v] > 1
}

// CommonRegion returns the region containing both u and v, together
// with their identifiers inside that region's view. Two distinct
// vertices lie together in at most one region, so the answer is unique;
// ok=false means every u→v dipath must cross regions (or an endpoint is
// isolated). For u == v at a cut vertex every membership qualifies, and
// the last (highest-numbered) one is returned. The cost is
// O(memberships), which is O(1) for non-cut vertices.
func (r *Regions) CommonRegion(u, v Vertex) (region int32, lu, lv Vertex, ok bool) {
	mus := r.RegionsOf(u)
	if u == v {
		if len(mus) == 0 {
			return -1, -1, -1, false
		}
		m := mus[len(mus)-1]
		return m.Region, m.Local, m.Local, true
	}
	for _, mu := range mus {
		for _, mv := range r.RegionsOf(v) {
			if mv.Region == mu.Region {
				return mu.Region, mu.Local, mv.Local, true
			}
		}
	}
	return -1, -1, -1, false
}

// PartitionRegions splits g into its arc-disjoint regions — the
// biconnected blocks of the underlying undirected multigraph, computed
// by one iterative Hopcroft–Tarjan pass over the incidence structure
// (parallel arcs form two-vertex blocks; the entry edge is skipped by
// identifier, so parallels register as back edges). A second pass carves
// the compact views out of a single global arc scan, exactly as
// PartitionComponents does, preserving relative vertex and arc order so
// that routing over a view is equivalent to routing over the parent for
// region-confined requests.
//
// The intended input is one weakly connected component (a
// ComponentView's graph); disconnected inputs work too — each component
// decomposes independently.
func (g *Digraph) PartitionRegions() *Regions {
	n := g.NumVertices()
	m := g.NumArcs()

	// Undirected incidence, CSR over half-edges.
	off := make([]int32, n+1)
	for _, a := range g.arcs {
		off[a.Tail+1]++
		off[a.Head+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	type halfEdge struct {
		arc ArcID
		to  Vertex
	}
	inc := make([]halfEdge, 2*m)
	fill := append([]int32(nil), off[:n]...)
	for _, a := range g.arcs {
		inc[fill[a.Tail]] = halfEdge{a.ID, a.Head}
		fill[a.Tail]++
		inc[fill[a.Head]] = halfEdge{a.ID, a.Tail}
		fill[a.Head]++
	}

	r := &Regions{
		ArcRegion: make([]int32, m),
		LocalArc:  make([]ArcID, m),
	}
	disc := make([]int32, n) // 0 = undiscovered, else discovery time + 1
	low := make([]int32, n)
	vstamp := make([]int32, n) // last region each vertex was recorded in
	for i := range vstamp {
		vstamp[i] = -1
	}
	type memberPair struct {
		v Vertex
		r int32
	}
	var pairs []memberPair
	var edgeStack []ArcID
	type frame struct {
		v         Vertex
		parentArc ArcID
		i         int32 // next half-edge offset within v's incidence row
	}
	var stack []frame
	var timer, nregions int32

	// popBlock retires the block whose first (deepest) edge is `until`:
	// everything above it on the edge stack belongs to the same block.
	popBlock := func(until ArcID) {
		region := nregions
		nregions++
		for {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			r.ArcRegion[e] = region
			a := g.arcs[e]
			for _, v := range [2]Vertex{a.Tail, a.Head} {
				if vstamp[v] != region {
					vstamp[v] = region
					pairs = append(pairs, memberPair{v, region})
				}
			}
			if e == until {
				return
			}
		}
	}

	for s := 0; s < n; s++ {
		if disc[s] != 0 {
			continue
		}
		timer++
		disc[s], low[s] = timer, timer
		stack = append(stack[:0], frame{Vertex(s), -1, off[s]})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			u := fr.v
			if fr.i < off[u+1] {
				he := inc[fr.i]
				fr.i++
				if he.arc == fr.parentArc {
					continue // skip only the entry edge: parallels are back edges
				}
				w := he.to
				switch {
				case disc[w] == 0: // tree edge
					edgeStack = append(edgeStack, he.arc)
					timer++
					disc[w], low[w] = timer, timer
					stack = append(stack, frame{w, he.arc, off[w]})
				case disc[w] < disc[u]: // back edge to an ancestor
					edgeStack = append(edgeStack, he.arc)
					if disc[w] < low[u] {
						low[u] = disc[w]
					}
				}
				// disc[w] > disc[u]: the descendant already pushed this
				// edge from its side; nothing to do.
				continue
			}
			childParent := fr.parentArc
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := &stack[len(stack)-1]
			if low[u] < low[p.v] {
				low[p.v] = low[u]
			}
			if low[u] >= disc[p.v] {
				// p.v separates u's subtree: the edges entered since
				// childParent form one block.
				popBlock(childParent)
			}
		}
	}

	// Per-vertex membership CSR (region order within a vertex follows
	// block discovery order — only the set matters).
	r.memberOff = make([]int32, n+1)
	for _, pr := range pairs {
		r.memberOff[pr.v+1]++
	}
	for v := 0; v < n; v++ {
		r.memberOff[v+1] += r.memberOff[v]
	}
	r.members = make([]RegionMember, len(pairs))
	mfill := append([]int32(nil), r.memberOff[:n]...)
	for _, pr := range pairs {
		r.members[mfill[pr.v]] = RegionMember{Region: pr.r, Local: -1}
		mfill[pr.v]++
	}

	// Vertices in ascending parent order: local ids inherit the
	// parent's relative order within every region.
	r.Views = make([]ComponentView, nregions)
	for i := range r.Views {
		r.Views[i].G = &Digraph{}
	}
	for v := 0; v < n; v++ {
		for i := r.memberOff[v]; i < r.memberOff[v+1]; i++ {
			mb := &r.members[i]
			view := &r.Views[mb.Region]
			mb.Local = view.G.AddVertex(g.labels[v])
			view.ToGlobalVertex = append(view.ToGlobalVertex, Vertex(v))
		}
	}
	// Arcs region by region, each region's arcs in ascending parent
	// order (the CSR below is filled by one ascending scan), so every
	// view keeps the parent's relative arc order. Local endpoints
	// resolve through a region-stamped scratch array — O(1) per lookup
	// even for cut vertices with many memberships, keeping the whole
	// carve at O(V + A) (a membership scan per arc endpoint would go
	// quadratic on hub-dominated components).
	arcOff := make([]int32, nregions+1)
	for _, region := range r.ArcRegion {
		arcOff[region+1]++
	}
	for i := int32(0); i < nregions; i++ {
		arcOff[i+1] += arcOff[i]
	}
	regionArcs := make([]ArcID, m)
	afill := append([]int32(nil), arcOff[:nregions]...)
	for _, a := range g.arcs {
		region := r.ArcRegion[a.ID]
		regionArcs[afill[region]] = a.ID
		afill[region]++
	}
	local := make([]Vertex, n)
	localStamp := make([]int32, n)
	for i := range localStamp {
		localStamp[i] = -1
	}
	for region := int32(0); region < nregions; region++ {
		view := &r.Views[region]
		for lv, gv := range view.ToGlobalVertex {
			local[gv] = Vertex(lv)
			localStamp[gv] = region
		}
		for _, id := range regionArcs[arcOff[region]:arcOff[region+1]] {
			a := g.arcs[id]
			if localStamp[a.Tail] != region || localStamp[a.Head] != region {
				panic("digraph: region arc endpoint outside its region")
			}
			r.LocalArc[id] = ArcID(view.G.NumArcs())
			view.G.MustAddArc(local[a.Tail], local[a.Head])
			view.ToGlobalArc = append(view.ToGlobalArc, id)
		}
	}
	return r
}
