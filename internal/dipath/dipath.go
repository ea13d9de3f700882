// Package dipath defines directed paths (dipaths) over a digraph and
// families of dipaths, the two objects the Bermond–Cosnard results are
// stated about. A dipath is stored both as its vertex sequence and as its
// arc-identifier sequence; the arc view is what load computation, conflict
// detection, and the coloring algorithms consume.
package dipath

import (
	"fmt"
	"strings"

	"wavedag/internal/digraph"
)

// Path is a dipath of a digraph: a sequence of at least one vertex where
// consecutive vertices are joined by the recorded arcs. A single-vertex
// path has no arcs, carries no load and conflicts with nothing; it is
// permitted because the Theorem 1 induction shrinks paths to (and past)
// single arcs.
type Path struct {
	vertices []digraph.Vertex
	arcs     []digraph.ArcID
}

// FromVertices builds a path through the given vertex sequence, resolving
// each consecutive pair to an arc of g (the first matching arc when
// parallels exist). It rejects empty sequences and missing arcs.
//
//wavedag:lockfree
//wavedag:allow-alloc (path construction)
func FromVertices(g *digraph.Digraph, vertices ...digraph.Vertex) (*Path, error) {
	if len(vertices) == 0 {
		return nil, fmt.Errorf("dipath: empty vertex sequence")
	}
	arcs := make([]digraph.ArcID, 0, len(vertices)-1)
	for i := 0; i+1 < len(vertices); i++ {
		id, ok := g.ArcBetween(vertices[i], vertices[i+1])
		if !ok {
			return nil, fmt.Errorf("dipath: no arc %d->%d in graph", vertices[i], vertices[i+1])
		}
		arcs = append(arcs, id)
	}
	return &Path{vertices: append([]digraph.Vertex(nil), vertices...), arcs: arcs}, nil
}

// FromArcs builds a path from a sequence of arc identifiers of g, checking
// that consecutive arcs share the intermediate vertex.
func FromArcs(g *digraph.Digraph, arcs ...digraph.ArcID) (*Path, error) {
	if len(arcs) == 0 {
		return nil, fmt.Errorf("dipath: empty arc sequence (use FromVertices for single-vertex paths)")
	}
	vertices := make([]digraph.Vertex, 0, len(arcs)+1)
	for i, id := range arcs {
		if id < 0 || int(id) >= g.NumArcs() {
			return nil, fmt.Errorf("dipath: arc %d out of range", id)
		}
		a := g.Arc(id)
		if i == 0 {
			vertices = append(vertices, a.Tail)
		} else if vertices[len(vertices)-1] != a.Tail {
			return nil, fmt.Errorf("dipath: arcs %d and %d do not chain (%d != %d)",
				arcs[i-1], id, vertices[len(vertices)-1], a.Tail)
		}
		vertices = append(vertices, a.Head)
	}
	return &Path{vertices: vertices, arcs: append([]digraph.ArcID(nil), arcs...)}, nil
}

// FromArcsTrusted builds a path from a non-empty sequence of arc
// identifiers of g without validating the chain: the vertex sequence is
// read straight off the arcs. It exists for paths whose validity is
// guaranteed by construction, so re-walking FromArcs' checks per path is
// pure overhead. Its callers are the sharded engine's view-to-parent
// translations and the snapshot's path reads (translations preserve
// chaining and simplicity exactly; see
// BenchmarkAblationTrustedTranslation for the measured delta), and,
// through Arena.FromArcsTrusted, route.Router's predecessor chains,
// whose consecutive arcs share their vertex by construction. The
// arcs slice is retained by the path; callers must not mutate it.
// Feeding arcs that do not chain silently builds a corrupt path — use
// FromArcs for anything that did not come out of a trusted construction.
//
//wavedag:lockfree
//wavedag:allow-alloc (path construction)
func FromArcsTrusted(g *digraph.Digraph, arcs ...digraph.ArcID) *Path {
	vertices := make([]digraph.Vertex, 0, len(arcs)+1)
	vertices = append(vertices, g.Arc(arcs[0]).Tail)
	for _, id := range arcs {
		vertices = append(vertices, g.Arc(id).Head)
	}
	return &Path{vertices: vertices, arcs: arcs}
}

// MustFromVertices is FromVertices but panics on error; for constructions
// that are correct by construction.
func MustFromVertices(g *digraph.Digraph, vertices ...digraph.Vertex) *Path {
	p, err := FromVertices(g, vertices...)
	if err != nil {
		panic(err)
	}
	return p
}

// First returns the initial vertex.
//
//wavedag:lockfree
func (p *Path) First() digraph.Vertex { return p.vertices[0] }

// Last returns the terminal vertex.
//
//wavedag:lockfree
func (p *Path) Last() digraph.Vertex { return p.vertices[len(p.vertices)-1] }

// NumArcs returns the number of arcs (the length of the dipath).
//
//wavedag:lockfree
func (p *Path) NumArcs() int { return len(p.arcs) }

// NumVertices returns the number of vertices (NumArcs()+1).
//
//wavedag:lockfree
func (p *Path) NumVertices() int { return len(p.vertices) }

// Arcs returns the arc sequence. The slice is owned by the path and must
// not be mutated.
//
//wavedag:lockfree
func (p *Path) Arcs() []digraph.ArcID { return p.arcs }

// Vertices returns the vertex sequence. The slice is owned by the path
// and must not be mutated.
//
//wavedag:lockfree
func (p *Path) Vertices() []digraph.Vertex { return p.vertices }

// Arc returns the i-th arc of the path.
func (p *Path) Arc(i int) digraph.ArcID { return p.arcs[i] }

// Vertex returns the i-th vertex of the path.
func (p *Path) Vertex(i int) digraph.Vertex { return p.vertices[i] }

// ContainsArc reports whether the path traverses arc id.
func (p *Path) ContainsArc(id digraph.ArcID) bool {
	return p.ArcIndex(id) >= 0
}

// ArcIndex returns the position of arc id on the path, or -1.
func (p *Path) ArcIndex(id digraph.ArcID) int {
	for i, a := range p.arcs {
		if a == id {
			return i
		}
	}
	return -1
}

// ContainsVertex reports whether v lies on the path.
func (p *Path) ContainsVertex(v digraph.Vertex) bool {
	for _, u := range p.vertices {
		if u == v {
			return true
		}
	}
	return false
}

// SharesArc reports whether p and q have an arc in common — the conflict
// relation of the wavelength-assignment problem.
func (p *Path) SharesArc(q *Path) bool {
	if len(p.arcs) > len(q.arcs) {
		p, q = q, p
	}
	if len(p.arcs) == 0 {
		return false
	}
	set := make(map[digraph.ArcID]struct{}, len(p.arcs))
	for _, a := range p.arcs {
		set[a] = struct{}{}
	}
	for _, a := range q.arcs {
		if _, ok := set[a]; ok {
			return true
		}
	}
	return false
}

// SharedArcs returns the arcs common to p and q, in p's traversal order.
func (p *Path) SharedArcs(q *Path) []digraph.ArcID {
	set := make(map[digraph.ArcID]struct{}, len(q.arcs))
	for _, a := range q.arcs {
		set[a] = struct{}{}
	}
	var shared []digraph.ArcID
	for _, a := range p.arcs {
		if _, ok := set[a]; ok {
			shared = append(shared, a)
		}
	}
	return shared
}

// Subpath returns the subpath spanning vertex positions [i, j] (inclusive,
// 0-based). It requires 0 <= i <= j < NumVertices().
func (p *Path) Subpath(i, j int) (*Path, error) {
	if i < 0 || j >= len(p.vertices) || i > j {
		return nil, fmt.Errorf("dipath: bad subpath bounds [%d,%d] of %d vertices", i, j, len(p.vertices))
	}
	return &Path{
		vertices: append([]digraph.Vertex(nil), p.vertices[i:j+1]...),
		arcs:     append([]digraph.ArcID(nil), p.arcs[i:j]...),
	}, nil
}

// DropFirstArc returns the path with its first arc removed; it is the
// "shrink" operation of the Theorem 1 induction (the deleted arc is always
// the first arc of any path containing it, because its tail is a source).
// Shrinking a single-arc path yields a single-vertex path; shrinking a
// single-vertex path is an error.
func (p *Path) DropFirstArc() (*Path, error) {
	if len(p.arcs) == 0 {
		return nil, fmt.Errorf("dipath: cannot shrink a single-vertex path")
	}
	return &Path{
		vertices: append([]digraph.Vertex(nil), p.vertices[1:]...),
		arcs:     append([]digraph.ArcID(nil), p.arcs[1:]...),
	}, nil
}

// Concat returns the concatenation p·q; p's last vertex must equal q's
// first vertex.
func (p *Path) Concat(q *Path) (*Path, error) {
	if p.Last() != q.First() {
		return nil, fmt.Errorf("dipath: cannot concatenate, %d != %d", p.Last(), q.First())
	}
	return &Path{
		vertices: append(append([]digraph.Vertex(nil), p.vertices...), q.vertices[1:]...),
		arcs:     append(append([]digraph.ArcID(nil), p.arcs...), q.arcs...),
	}, nil
}

// Equal reports whether p and q traverse the same vertex sequence via the
// same arcs.
func (p *Path) Equal(q *Path) bool {
	if len(p.vertices) != len(q.vertices) {
		return false
	}
	for i := range p.vertices {
		if p.vertices[i] != q.vertices[i] {
			return false
		}
	}
	for i := range p.arcs {
		if p.arcs[i] != q.arcs[i] {
			return false
		}
	}
	return true
}

// String renders the vertex sequence, e.g. "0->1->3".
func (p *Path) String() string {
	var b strings.Builder
	for i, v := range p.vertices {
		if i > 0 {
			b.WriteString("->")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// Validate checks that the path is consistent with g: every recorded arc
// exists and joins the recorded vertices.
func (p *Path) Validate(g *digraph.Digraph) error {
	if len(p.vertices) == 0 {
		return fmt.Errorf("dipath: empty path")
	}
	if len(p.arcs) != len(p.vertices)-1 {
		return fmt.Errorf("dipath: %d arcs for %d vertices", len(p.arcs), len(p.vertices))
	}
	for i, id := range p.arcs {
		if id < 0 || int(id) >= g.NumArcs() {
			return fmt.Errorf("dipath: arc %d out of range", id)
		}
		a := g.Arc(id)
		if a.Tail != p.vertices[i] || a.Head != p.vertices[i+1] {
			return fmt.Errorf("dipath: arc %d is %d->%d, path expects %d->%d",
				id, a.Tail, a.Head, p.vertices[i], p.vertices[i+1])
		}
	}
	// Simplicity check. Paths here are overwhelmingly short (routing
	// output is hop-bounded), where a quadratic scan beats a map by an
	// order of magnitude — no makemap/mapassign per call on the hot
	// Validate path; the map only backs genuinely long paths.
	if len(p.vertices) <= 64 {
		for i, v := range p.vertices {
			for _, u := range p.vertices[:i] {
				if u == v {
					return fmt.Errorf("dipath: vertex %d repeated (not a simple dipath)", v)
				}
			}
		}
		return nil
	}
	seen := make(map[digraph.Vertex]bool, len(p.vertices))
	for _, v := range p.vertices {
		if seen[v] {
			return fmt.Errorf("dipath: vertex %d repeated (not a simple dipath)", v)
		}
		seen[v] = true
	}
	return nil
}

// Family is an ordered collection of dipaths; order matters because
// colorings are reported as a slice parallel to the family.
type Family []*Path

// Validate checks every path of the family against g.
func (f Family) Validate(g *digraph.Digraph) error {
	for i, p := range f {
		if p == nil {
			return fmt.Errorf("dipath: family[%d] is nil", i)
		}
		if err := p.Validate(g); err != nil {
			return fmt.Errorf("dipath: family[%d]: %w", i, err)
		}
	}
	return nil
}

// Clone returns a family sharing the same (immutable) paths.
func (f Family) Clone() Family { return append(Family(nil), f...) }

// Replicate returns the family in which every path of f appears h times
// (the replication operator used by Theorems 6/7 tightness examples:
// replacing each dipath with h identical dipaths multiplies the load by h).
func (f Family) Replicate(h int) Family {
	if h < 1 {
		return nil
	}
	out := make(Family, 0, len(f)*h)
	for _, p := range f {
		for i := 0; i < h; i++ {
			out = append(out, p)
		}
	}
	return out
}

// ArcIncidence returns, for each arc of g, the indices of the family
// members traversing it. The per-arc lists share one exactly-sized
// backing array (built CSR-style in two passes), so the whole structure
// costs three allocations however large the family.
func ArcIncidence(g *digraph.Digraph, f Family) [][]int {
	counts := make([]int, g.NumArcs())
	total := 0
	for _, p := range f {
		for _, a := range p.Arcs() {
			counts[a]++
			total++
		}
	}
	backing := make([]int, total)
	inc := make([][]int, g.NumArcs())
	offset := 0
	for a := range inc {
		inc[a] = backing[offset : offset : offset+counts[a]]
		offset += counts[a]
	}
	for i, p := range f {
		for _, a := range p.Arcs() {
			inc[a] = append(inc[a], i)
		}
	}
	return inc
}
