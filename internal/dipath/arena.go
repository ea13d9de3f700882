package dipath

import "wavedag/internal/digraph"

// Arena carves paths from shared blocks: the arc sequences, the vertex
// sequences and the Path headers of many paths come from blocks of up to
// arenaMaxBlock elements each instead of from three allocations per path.
// It is for a family whose paths share one lifetime, such as the routes
// of a one-shot plan: a path keeps every block it was carved from alive,
// so a long-lived holder that drops paths one by one (a session) should
// allocate them on their own instead.
//
// Every slice an arena hands out is capped at its own length
// (s[i:j:j]), so an append to one path's Arcs or Vertices reallocates
// instead of writing into the next path. Blocks double from
// arenaMinBlock to arenaMaxBlock elements; a request longer than the
// next block gets a block of exactly its length.
//
// The zero value is ready to use. A nil *Arena allocates every slice
// and path on its own, so callers can take an optional arena without a
// second code path. An Arena is not safe for concurrent use.
type Arena struct {
	arcs     []digraph.ArcID  // unused tail of the current arc block
	vertices []digraph.Vertex // unused tail of the current vertex block
	paths    []Path           // unused tail of the current header block
	// Length of each kind's current block, from which the next one
	// doubles.
	arcBlock, vertexBlock, pathBlock int
}

// Block lengths of an Arena, in elements.
const (
	arenaMinBlock = 64
	arenaMaxBlock = 1024
)

// nextBlock returns the length of the block that follows one of length
// prev and holds at least n elements.
//
//wavedag:lockfree
func nextBlock(prev, n int) int {
	return max(min(max(2*prev, arenaMinBlock), arenaMaxBlock), n)
}

// Arcs returns a zeroed arc sequence of length n (and capacity n) for
// the caller to fill and then hand to FromArcsTrusted.
//
//wavedag:lockfree
//wavedag:allow-alloc (path construction)
func (a *Arena) Arcs(n int) []digraph.ArcID {
	if a == nil {
		return make([]digraph.ArcID, n)
	}
	if len(a.arcs) < n {
		a.arcBlock = nextBlock(a.arcBlock, n)
		a.arcs = make([]digraph.ArcID, a.arcBlock)
	}
	s := a.arcs[:n:n]
	a.arcs = a.arcs[n:]
	return s
}

// FromArcsTrusted is the package-level FromArcsTrusted with the vertex
// sequence and the Path header carved from the arena; arcs is retained
// as the path's arc sequence, typically as returned by Arcs. Like the
// package-level function it does not check that the arcs chain.
//
//wavedag:lockfree
//wavedag:allow-alloc (path construction)
func (a *Arena) FromArcsTrusted(g *digraph.Digraph, arcs []digraph.ArcID) *Path {
	if a == nil {
		return FromArcsTrusted(g, arcs...)
	}
	n := len(arcs) + 1
	if len(a.vertices) < n {
		a.vertexBlock = nextBlock(a.vertexBlock, n)
		a.vertices = make([]digraph.Vertex, a.vertexBlock)
	}
	vertices := a.vertices[:n:n]
	a.vertices = a.vertices[n:]
	vertices[0] = g.Arc(arcs[0]).Tail
	for i, id := range arcs {
		vertices[i+1] = g.Arc(id).Head
	}
	if len(a.paths) == 0 {
		a.pathBlock = nextBlock(a.pathBlock, 1)
		a.paths = make([]Path, a.pathBlock)
	}
	p := &a.paths[0]
	a.paths = a.paths[1:]
	*p = Path{vertices: vertices, arcs: arcs}
	return p
}
