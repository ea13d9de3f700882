package route

import (
	"testing"

	"wavedag/internal/digraph"
)

// FuzzMinLoadPath checks Router.MinLoadPath against the unpruned
// oracleMinLoadPath, and Router.ShortestPath's verdict and path against
// a plain BFS, at every request on graphs grown from the input: the
// first byte sets the starting vertex count (2 to 141, so ancestor sets
// span one to three words), and every following byte triple (op, x, y)
// is one step of minLoadEquiv — a request, a load removal, an arc cut
// or restoration, an added arc or an added vertex. Arcs may point
// either way, so directed cycles are allowed as well. Once the input is
// consumed, the router's breadth-first searches are checked too
// (checkBFS).
func FuzzMinLoadPath(f *testing.F) {
	f.Add([]byte{4, 6, 0, 1, 6, 1, 2, 6, 2, 3, 0, 0, 3, 4, 1, 0, 0, 0, 3})
	f.Add([]byte{5, 6, 0, 1, 6, 0, 1, 6, 1, 4, 6, 0, 2, 6, 2, 4, 0, 0, 4, 5, 1, 0, 0, 0, 4, 3, 0, 0, 0, 0, 4})
	f.Add([]byte{3, 6, 0, 1, 6, 1, 2, 7, 2, 0, 0, 0, 3, 6, 2, 0, 1, 1, 0})
	// 132 vertices: a chain 0->70->130 and a shortcut 0->130 across
	// three set words, a cut and a grown vertex past the start.
	f.Add([]byte{130, 6, 0, 70, 6, 70, 130, 0, 0, 130, 6, 0, 130, 0, 0, 130, 5, 2, 0, 0, 0, 130, 7, 130, 0, 0, 70, 132})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("not enough bytes")
		}
		e := newMinLoadEquiv(t, digraph.New(2+int(data[0])%140))
		for i := 1; i+2 < len(data); i += 3 {
			if e.g.NumVertices() >= 160 {
				break // keep each input small
			}
			e.step(int(data[i]), int(data[i+1]), int(data[i+2]))
		}
		e.checkBFS(0, digraph.Vertex(data[1]), digraph.Vertex(data[2]))
	})
}
