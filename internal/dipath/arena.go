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
// The zero value is ready to use. A nil *Arena allocates each path on
// its own, so callers can take an optional arena without a second code
// path: a route of up to 8 arcs is one allocation, the header and both
// sequences carved from one object, and a longer one is three (see
// Carve). An Arena is not safe for concurrent use.
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

// Carve returns a path of hops ≥ 1 arcs whose arc sequence (length
// hops) and vertex sequence (length hops+1) are zeroed for the caller
// to fill in place: arcs[i] must run from vertices[i] to
// vertices[i+1]. Nothing checks that they do, so Carve is for builders
// that have the chain by construction, such as a router walking its
// predecessor arcs; the path must not be read until it is filled.
//
// A nil arena carves a path of up to 8 arcs, its header and both
// sequences, from one object of a fixed-size type (one for up to 4
// arcs, one for up to 8), so a routed path costs one allocation; the
// object lives as long as any of the three does. A longer path
// allocates the three on their own. Either way both slices are capped
// at their length, as an arena's are.
//
//wavedag:lockfree
//wavedag:allow-alloc (path construction)
func (a *Arena) Carve(hops int) (p *Path, arcs []digraph.ArcID, vertices []digraph.Vertex) {
	if a == nil {
		switch n := hops + 1; {
		case hops <= 4:
			c := new(carved4)
			p, arcs, vertices = &c.path, c.arcs[:hops:hops], c.vertices[:n:n]
		case hops <= 8:
			c := new(carved8)
			p, arcs, vertices = &c.path, c.arcs[:hops:hops], c.vertices[:n:n]
		default:
			p, arcs, vertices = new(Path), make([]digraph.ArcID, hops), make([]digraph.Vertex, n)
		}
		*p = Path{vertices: vertices, arcs: arcs}
		return p, arcs, vertices
	}
	if len(a.arcs) < hops {
		a.arcBlock = nextBlock(a.arcBlock, hops)
		a.arcs = make([]digraph.ArcID, a.arcBlock)
	}
	arcs = a.arcs[:hops:hops]
	a.arcs = a.arcs[hops:]
	n := hops + 1
	if len(a.vertices) < n {
		a.vertexBlock = nextBlock(a.vertexBlock, n)
		a.vertices = make([]digraph.Vertex, a.vertexBlock)
	}
	vertices = a.vertices[:n:n]
	a.vertices = a.vertices[n:]
	if len(a.paths) == 0 {
		a.pathBlock = nextBlock(a.pathBlock, 1)
		a.paths = make([]Path, a.pathBlock)
	}
	p = &a.paths[0]
	a.paths = a.paths[1:]
	*p = Path{vertices: vertices, arcs: arcs}
	return p, arcs, vertices
}

// carved4 and carved8 are one allocation each, holding a path's header
// and the backing arrays of both its sequences, for a nil arena's
// routes of up to 4 and up to 8 arcs.
type (
	carved4 struct {
		path     Path
		arcs     [4]digraph.ArcID
		vertices [5]digraph.Vertex
	}
	carved8 struct {
		path     Path
		arcs     [8]digraph.ArcID
		vertices [9]digraph.Vertex
	}
)
