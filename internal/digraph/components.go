package digraph

// ComponentView is one weakly connected component of a digraph,
// materialised as a compact standalone digraph plus the identifier
// translations back to the parent. Local identifiers are dense and
// ordered: vertex i of G is the i-th smallest parent vertex of the
// component, and arcs appear in parent arc-identifier order, so BFS and
// Dijkstra traversals over the view visit neighbours in exactly the
// order they would in the parent — routing over a view is equivalent to
// routing over the parent restricted to the component.
type ComponentView struct {
	G              *Digraph
	ToGlobalVertex []Vertex // local vertex -> parent vertex
	ToGlobalArc    []ArcID  // local arc -> parent arc
}

// ComponentLabels returns, for every vertex, the index of its weakly
// connected component (directions ignored). Components are numbered by
// their smallest vertex, so the labelling is stable across runs —
// the partition contract shard dispatchers rely on. Failed arcs still
// connect: the labelling describes the installed fiber plant, which is
// what the static shard layout is built on.
func (g *Digraph) ComponentLabels() []int32 {
	n := g.NumVertices()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	queue := make([]Vertex, 0, n)
	var ncomp int32
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = ncomp
		queue = append(queue[:0], Vertex(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, a := range g.out[v] {
				if h := g.arcs[a].Head; label[h] < 0 {
					label[h] = ncomp
					queue = append(queue, h)
				}
			}
			for _, a := range g.in[v] {
				if t := g.arcs[a].Tail; label[t] < 0 {
					label[t] = ncomp
					queue = append(queue, t)
				}
			}
		}
		ncomp++
	}
	return label
}

// PartitionComponents splits g into its weakly connected components:
// one compact ComponentView per component (ordered by smallest vertex),
// the vertex→component labelling, and the vertex→local-index
// translation. Everything is built in one O(V+A) pass — per-component
// arc lists are carved out of the single global arc scan, so the cost
// does not multiply with the component count and no view ever holds a
// copy of the full digraph. Dipaths never cross components, which makes
// the views independent substrates: a session per view touches disjoint
// state, the foundation of the sharded provisioning engine.
func (g *Digraph) PartitionComponents() (views []ComponentView, label []int32, localVertex []Vertex) {
	label = g.ComponentLabels()
	n := g.NumVertices()
	ncomp := 0
	for _, l := range label {
		if int(l) >= ncomp {
			ncomp = int(l) + 1
		}
	}
	views = make([]ComponentView, ncomp)
	localVertex = make([]Vertex, n)
	for c := range views {
		views[c].G = &Digraph{}
	}
	// Vertices in ascending parent order: local ids inherit the parent's
	// relative order within the component.
	for v := 0; v < n; v++ {
		view := &views[label[v]]
		localVertex[v] = view.G.AddVertex(g.labels[v])
		view.ToGlobalVertex = append(view.ToGlobalVertex, Vertex(v))
	}
	// Arcs in ascending parent order, one pass: adjacency lists of every
	// view keep the parent's relative arc order.
	for _, a := range g.arcs {
		view := &views[label[a.Tail]]
		view.G.MustAddArc(localVertex[a.Tail], localVertex[a.Head])
		view.ToGlobalArc = append(view.ToGlobalArc, a.ID)
	}
	return views, label, localVertex
}
