// Package digraph implements the directed-graph substrate used throughout
// wavedag: a compact digraph with dense integer vertex and arc identifiers,
// constant-time degree queries, and deterministic iteration order.
//
// The representation is tuned for the algorithms of Bermond & Cosnard
// (IPDPS 2007): arcs carry stable identifiers so that dipaths, loads and
// colorings can be indexed by arc, and the in/out adjacency is kept in
// insertion order so that repeated runs are reproducible.
package digraph

import (
	"fmt"
	"sort"
	"strings"
)

// Vertex identifies a vertex of a Digraph. Identifiers are dense:
// the vertices of a graph with n vertices are exactly 0..n-1.
type Vertex int

// ArcID identifies an arc of a Digraph. Identifiers are dense:
// the arcs of a graph with m arcs are exactly 0..m-1.
type ArcID int

// Arc is a directed edge from Tail to Head.
type Arc struct {
	ID   ArcID
	Tail Vertex
	Head Vertex
}

// Digraph is a mutable directed multigraph. The zero value is an empty
// graph ready to use. Vertices and arcs can only be added, never removed;
// algorithms that need deletion work on index subsets instead, which keeps
// identifiers stable.
//
// Arcs can, however, be failed and restored in place (FailArc /
// RestoreArc): a failed arc keeps its identifier, its endpoints and its
// position in every adjacency list — loads, colorings and dipaths
// indexed by arc stay valid — but failure-aware traversals (the routing
// layer's searches) skip it. This is the fiber-cut model of
// the survivability engine: a cut removes capacity, never renames
// anything.
type Digraph struct {
	labels []string
	arcs   []Arc
	out    [][]ArcID // out[v] = arcs with Tail v, in insertion order
	in     [][]ArcID // in[v] = arcs with Head v, in insertion order

	failed    []bool // failed[a] = arc a is cut; nil until the first cut
	numFailed int
	topoEpoch uint64 // bumped by AddArc/FailArc/RestoreArc; see TopologyEpoch
}

// New returns an empty digraph with n unlabeled vertices.
func New(n int) *Digraph {
	g := &Digraph{}
	for i := 0; i < n; i++ {
		g.AddVertex("")
	}
	return g
}

// AddVertex adds a vertex with the given label (may be empty) and returns
// its identifier.
func (g *Digraph) AddVertex(label string) Vertex {
	v := Vertex(len(g.labels))
	g.labels = append(g.labels, label)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return v
}

// AddArc adds an arc from tail to head and returns its identifier.
// Self-loops are rejected because every graph in this module is a DAG.
// Parallel arcs are permitted (the model is a multigraph).
func (g *Digraph) AddArc(tail, head Vertex) (ArcID, error) {
	if err := g.checkVertex(tail); err != nil {
		return -1, fmt.Errorf("digraph: bad tail: %w", err)
	}
	if err := g.checkVertex(head); err != nil {
		return -1, fmt.Errorf("digraph: bad head: %w", err)
	}
	if tail == head {
		return -1, fmt.Errorf("digraph: self-loop %d->%d not allowed", tail, head)
	}
	id := ArcID(len(g.arcs))
	g.arcs = append(g.arcs, Arc{ID: id, Tail: tail, Head: head})
	g.out[tail] = append(g.out[tail], id)
	g.in[head] = append(g.in[head], id)
	if g.failed != nil {
		g.failed = append(g.failed, false)
	}
	g.topoEpoch++
	return id, nil
}

// ── Arc failure (fiber cuts) ───────────────────────────────────────────

// FailArc marks the arc as failed (a fiber cut). The arc keeps its
// identifier and adjacency position — only failure-aware traversals
// treat it as absent. Failing an arc that is out of range or already
// failed is an error.
func (g *Digraph) FailArc(id ArcID) error {
	if id < 0 || int(id) >= len(g.arcs) {
		return fmt.Errorf("digraph: arc %d out of range [0,%d)", id, len(g.arcs))
	}
	if g.failed == nil {
		g.failed = make([]bool, len(g.arcs))
	}
	if g.failed[id] {
		return fmt.Errorf("digraph: arc %d is already failed", id)
	}
	g.failed[id] = true
	g.numFailed++
	g.topoEpoch++
	return nil
}

// RestoreArc clears the failure mark set by FailArc. Restoring an arc
// that is out of range or not failed is an error.
func (g *Digraph) RestoreArc(id ArcID) error {
	if id < 0 || int(id) >= len(g.arcs) {
		return fmt.Errorf("digraph: arc %d out of range [0,%d)", id, len(g.arcs))
	}
	if g.failed == nil || !g.failed[id] {
		return fmt.Errorf("digraph: arc %d is not failed", id)
	}
	g.failed[id] = false
	g.numFailed--
	g.topoEpoch++
	return nil
}

// ArcFailed reports whether the arc is currently failed. Out-of-range
// identifiers report false.
func (g *Digraph) ArcFailed(id ArcID) bool {
	return g.failed != nil && id >= 0 && int(id) < len(g.failed) && g.failed[id]
}

// NumFailedArcs reports how many arcs are currently failed.
func (g *Digraph) NumFailedArcs() int { return g.numFailed }

// TopologyEpoch is a counter bumped by every AddArc, FailArc and
// RestoreArc. Derived facts (a published engine snapshot, a session's
// "no live route" stamp on a dark entry) record the epoch they were
// computed at and are stale once it moves.
func (g *Digraph) TopologyEpoch() uint64 { return g.topoEpoch }

// MustAddArc is AddArc but panics on error. It is intended for
// constructions whose vertex arguments are correct by construction
// (generators and tests).
func (g *Digraph) MustAddArc(tail, head Vertex) ArcID {
	id, err := g.AddArc(tail, head)
	if err != nil {
		panic(err)
	}
	return id
}

func (g *Digraph) checkVertex(v Vertex) error {
	if v < 0 || int(v) >= len(g.labels) {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, len(g.labels))
	}
	return nil
}

// NumVertices reports the number of vertices.
func (g *Digraph) NumVertices() int { return len(g.labels) }

// NumArcs reports the number of arcs.
//
//wavedag:lockfree
func (g *Digraph) NumArcs() int { return len(g.arcs) }

// Arc returns the arc with the given identifier.
//
//wavedag:lockfree
func (g *Digraph) Arc(id ArcID) Arc { return g.arcs[id] }

// Label returns the label of v (empty if none was assigned).
func (g *Digraph) Label(v Vertex) string { return g.labels[v] }

// SetLabel assigns a label to v.
func (g *Digraph) SetLabel(v Vertex, label string) { g.labels[v] = label }

// VertexName returns the label of v, or "v<idx>" when unlabeled.
// It is the human-facing name used by String and DOT exports.
func (g *Digraph) VertexName(v Vertex) string {
	if g.labels[v] != "" {
		return g.labels[v]
	}
	return fmt.Sprintf("v%d", v)
}

// OutArcs returns the identifiers of the arcs leaving v, in insertion
// order. The returned slice is owned by the graph and must not be mutated.
func (g *Digraph) OutArcs(v Vertex) []ArcID { return g.out[v] }

// InArcs returns the identifiers of the arcs entering v, in insertion
// order. The returned slice is owned by the graph and must not be mutated.
func (g *Digraph) InArcs(v Vertex) []ArcID { return g.in[v] }

// OutDegree reports the number of arcs leaving v.
func (g *Digraph) OutDegree(v Vertex) int { return len(g.out[v]) }

// InDegree reports the number of arcs entering v.
func (g *Digraph) InDegree(v Vertex) int { return len(g.in[v]) }

// IsSource reports whether v has in-degree 0.
func (g *Digraph) IsSource(v Vertex) bool { return len(g.in[v]) == 0 }

// IsSink reports whether v has out-degree 0.
func (g *Digraph) IsSink(v Vertex) bool { return len(g.out[v]) == 0 }

// Sources returns the vertices with in-degree 0, in increasing order.
func (g *Digraph) Sources() []Vertex {
	var s []Vertex
	for v := range g.labels {
		if g.IsSource(Vertex(v)) {
			s = append(s, Vertex(v))
		}
	}
	return s
}

// Sinks returns the vertices with out-degree 0, in increasing order.
func (g *Digraph) Sinks() []Vertex {
	var s []Vertex
	for v := range g.labels {
		if g.IsSink(Vertex(v)) {
			s = append(s, Vertex(v))
		}
	}
	return s
}

// ArcBetween returns the identifier of an arc tail->head if at least one
// exists. When parallel arcs exist it returns the first inserted one.
//
//wavedag:lockfree
func (g *Digraph) ArcBetween(tail, head Vertex) (ArcID, bool) {
	if tail < 0 || int(tail) >= len(g.labels) {
		return -1, false
	}
	for _, id := range g.out[tail] {
		if g.arcs[id].Head == head {
			return id, true
		}
	}
	return -1, false
}

// ArcsBetween returns all arcs tail->head (parallel arcs included).
func (g *Digraph) ArcsBetween(tail, head Vertex) []ArcID {
	var ids []ArcID
	if tail < 0 || int(tail) >= len(g.labels) {
		return nil
	}
	for _, id := range g.out[tail] {
		if g.arcs[id].Head == head {
			ids = append(ids, id)
		}
	}
	return ids
}

// Clone returns a deep copy of the graph. Vertex and arc identifiers are
// preserved.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		labels:    append([]string(nil), g.labels...),
		arcs:      append([]Arc(nil), g.arcs...),
		out:       make([][]ArcID, len(g.out)),
		in:        make([][]ArcID, len(g.in)),
		failed:    append([]bool(nil), g.failed...),
		numFailed: g.numFailed,
		topoEpoch: g.topoEpoch,
	}
	for v := range g.out {
		c.out[v] = append([]ArcID(nil), g.out[v]...)
		c.in[v] = append([]ArcID(nil), g.in[v]...)
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep, together with the
// mapping newToOld from new vertex identifiers to the originals and the
// mapping arcNewToOld from new arc identifiers to the originals. Vertices
// appear in the new graph in the order given by keep (duplicates are
// rejected).
func (g *Digraph) InducedSubgraph(keep []Vertex) (sub *Digraph, newToOld []Vertex, arcNewToOld []ArcID, err error) {
	oldToNew := make(map[Vertex]Vertex, len(keep))
	sub = New(0)
	for _, v := range keep {
		if e := g.checkVertex(v); e != nil {
			return nil, nil, nil, e
		}
		if _, dup := oldToNew[v]; dup {
			return nil, nil, nil, fmt.Errorf("digraph: duplicate vertex %d in induced subgraph", v)
		}
		oldToNew[v] = sub.AddVertex(g.labels[v])
		newToOld = append(newToOld, v)
	}
	for _, a := range g.arcs {
		nt, okT := oldToNew[a.Tail]
		nh, okH := oldToNew[a.Head]
		if okT && okH {
			id, e := sub.AddArc(nt, nh)
			if e != nil {
				return nil, nil, nil, e
			}
			_ = id
			arcNewToOld = append(arcNewToOld, a.ID)
		}
	}
	return sub, newToOld, arcNewToOld, nil
}

// String renders the graph as one "tail->head" pair per arc, ordered by
// arc identifier; useful in tests and error messages.
func (g *Digraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph(n=%d, m=%d)", g.NumVertices(), g.NumArcs())
	for _, a := range g.arcs {
		fmt.Fprintf(&b, " %s->%s", g.VertexName(a.Tail), g.VertexName(a.Head))
	}
	return b.String()
}

// DOT renders the graph in Graphviz dot syntax. Arcs are emitted in
// identifier order so the output is deterministic.
func (g *Digraph) DOT(name string) string {
	if name == "" {
		name = "G"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", name)
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&b, "  %q;\n", g.VertexName(Vertex(v)))
	}
	for _, a := range g.arcs {
		fmt.Fprintf(&b, "  %q -> %q;\n", g.VertexName(a.Tail), g.VertexName(a.Head))
	}
	b.WriteString("}\n")
	return b.String()
}

// Arcs returns a copy of all arcs in identifier order.
func (g *Digraph) Arcs() []Arc { return append([]Arc(nil), g.arcs...) }

// Vertices returns all vertex identifiers in increasing order.
func (g *Digraph) Vertices() []Vertex {
	vs := make([]Vertex, g.NumVertices())
	for i := range vs {
		vs[i] = Vertex(i)
	}
	return vs
}

// SortedArcIDs returns the arc identifiers sorted by (tail, head, id);
// useful for canonical comparisons between graphs in tests.
func (g *Digraph) SortedArcIDs() []ArcID {
	ids := make([]ArcID, len(g.arcs))
	for i := range ids {
		ids[i] = ArcID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := g.arcs[ids[i]], g.arcs[ids[j]]
		if a.Tail != b.Tail {
			return a.Tail < b.Tail
		}
		if a.Head != b.Head {
			return a.Head < b.Head
		}
		return a.ID < b.ID
	})
	return ids
}

// Equal reports whether g and h have the same vertex count and the same
// multiset of (tail, head) arcs. Labels are ignored.
func Equal(g, h *Digraph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumArcs() != h.NumArcs() {
		return false
	}
	gi, hi := g.SortedArcIDs(), h.SortedArcIDs()
	for k := range gi {
		a, b := g.arcs[gi[k]], h.arcs[hi[k]]
		if a.Tail != b.Tail || a.Head != b.Head {
			return false
		}
	}
	return true
}
