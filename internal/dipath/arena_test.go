package dipath

import (
	"testing"

	"wavedag/internal/digraph"
)

// chain returns the path graph 0->1->...->n.
func chain(n int) *digraph.Digraph {
	g := digraph.New(n + 1)
	for i := 0; i < n; i++ {
		g.MustAddArc(digraph.Vertex(i), digraph.Vertex(i+1))
	}
	return g
}

// carve builds the subpath of a chain from vertex from over k arcs in
// arena, filling its arcs the way a router does.
func carve(g *digraph.Digraph, arena *Arena, from, k int) *Path {
	arcs := arena.Arcs(k)
	for i := range arcs {
		arcs[i] = digraph.ArcID(from + i)
	}
	return arena.FromArcsTrusted(g, arcs)
}

// checkChainPath fails unless p is the subpath of a chain from vertex
// from over k arcs.
func checkChainPath(t *testing.T, g *digraph.Digraph, p *Path, from, k int) {
	t.Helper()
	want, err := FromVertices(g, chainVertices(from, k)...)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(want) || p.NumArcs() != k {
		t.Fatalf("path from %d over %d arcs: got %v", from, k, p)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func chainVertices(from, k int) []digraph.Vertex {
	vs := make([]digraph.Vertex, k+1)
	for i := range vs {
		vs[i] = digraph.Vertex(from + i)
	}
	return vs
}

// TestArenaRollover carves enough paths to roll every kind of block
// over several times, including paths longer than the first block and
// one longer than the largest block, and checks every path afterwards:
// no later carve may have written into an earlier path.
func TestArenaRollover(t *testing.T) {
	long := 2*arenaMaxBlock + 5
	g := chain(long + 10)
	type span struct{ from, k int }
	var spans []span
	for i := 0; i < 3000; i++ {
		spans = append(spans, span{i % 50, 1 + i%7})
	}
	// Longer than the current block at the time it is carved.
	spans = append(spans[:10], append([]span{{3, 3 * arenaMinBlock}}, spans[10:]...)...)
	// Longer than any block: it gets a block of its own length.
	spans = append(spans, span{0, long}, span{7, 2})
	var arena Arena
	paths := make([]*Path, len(spans))
	for i, s := range spans {
		paths[i] = carve(g, &arena, s.from, s.k)
	}
	for i, s := range spans {
		checkChainPath(t, g, paths[i], s.from, s.k)
	}
}

// TestArenaFullSliceCaps checks that an append to one path's Arcs or
// Vertices reallocates instead of writing into the next path carved
// from the same block.
func TestArenaFullSliceCaps(t *testing.T) {
	g := chain(20)
	var arena Arena
	p := carve(g, &arena, 0, 3)
	q := carve(g, &arena, 5, 4)
	if cap(p.Arcs()) != p.NumArcs() || cap(p.Vertices()) != p.NumVertices() {
		t.Fatalf("caps %d/%d for %d arcs, %d vertices", cap(p.Arcs()), cap(p.Vertices()), p.NumArcs(), p.NumVertices())
	}
	_ = append(p.Arcs(), 19)
	_ = append(p.Vertices(), 19)
	checkChainPath(t, g, q, 5, 4)
	checkChainPath(t, g, p, 0, 3)
}

// TestArenaNil checks that a nil arena allocates each path on its own,
// with the same result as the package-level constructor.
func TestArenaNil(t *testing.T) {
	g := chain(6)
	var arena *Arena
	p := carve(g, arena, 1, 4)
	checkChainPath(t, g, p, 1, 4)
	if want := FromArcsTrusted(g, 1, 2, 3, 4); !p.Equal(want) {
		t.Fatalf("nil arena %v, FromArcsTrusted %v", p, want)
	}
}

// TestArenaAllocs pins the point of the arena: a thousand short paths
// cost a few dozen block allocations, not three per path.
func TestArenaAllocs(t *testing.T) {
	g := chain(60)
	allocs := testing.AllocsPerRun(5, func() {
		arena := new(Arena)
		for i := 0; i < 1000; i++ {
			carve(g, arena, i%50, 1+i%5)
		}
	})
	if allocs > 30 {
		t.Fatalf("%v allocations for 1000 arena paths, want <= 30", allocs)
	}
	if got := nextBlock(0, 1); got != arenaMinBlock {
		t.Fatalf("first block %d, want %d", got, arenaMinBlock)
	}
	if got := nextBlock(arenaMaxBlock, 1); got != arenaMaxBlock {
		t.Fatalf("block after the largest %d, want %d", got, arenaMaxBlock)
	}
	if got := nextBlock(arenaMinBlock, 3*arenaMaxBlock); got != 3*arenaMaxBlock {
		t.Fatalf("block for an oversized request %d, want %d", got, 3*arenaMaxBlock)
	}
}
