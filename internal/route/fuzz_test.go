package route

import (
	"testing"

	"wavedag/internal/digraph"
)

// FuzzMinLoadPath checks Router.MinLoadPath against the unpruned
// oracleMinLoadPath on graphs grown from the input: the first byte
// sets the starting vertex count, and every following byte triple
// (op, x, y) is one step of minLoadEquiv — a request, a load removal,
// an arc cut or restoration, an added arc or an added vertex. Arcs may
// point either way, so directed cycles are allowed as well.
func FuzzMinLoadPath(f *testing.F) {
	f.Add([]byte{4, 6, 0, 1, 6, 1, 2, 6, 2, 3, 0, 0, 3, 4, 1, 0, 0, 0, 3})
	f.Add([]byte{5, 6, 0, 1, 6, 0, 1, 6, 1, 4, 6, 0, 2, 6, 2, 4, 0, 0, 4, 5, 1, 0, 0, 0, 4, 3, 0, 0, 0, 0, 4})
	f.Add([]byte{3, 6, 0, 1, 6, 1, 2, 7, 2, 0, 0, 0, 3, 6, 2, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("not enough bytes")
		}
		e := newMinLoadEquiv(t, digraph.New(2+int(data[0]%14)))
		for i := 1; i+2 < len(data); i += 3 {
			if e.g.NumVertices() >= 64 {
				break // keep each input small
			}
			e.step(int(data[i]), int(data[i+1]), int(data[i+2]))
		}
	})
}
