package core

import (
	"slices"
	"testing"

	"wavedag/internal/conflict"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
)

// dsaturCase is one input of FuzzDSATURIncidence: a random DAG of nv
// vertices and about arcs arcs, count random walks of up to maxLen arcs
// over it, and every extra-th walk repeated and every extra-th vertex
// added as a single-vertex path.
type dsaturCase struct {
	seed             int64
	nv, arcs, maxLen uint8
	count            uint16
	extra            uint8
}

// dsaturCorpus spans conflict components of one path, of two, of up to
// 128 and of more than 128 (TestDSATURCorpusComponentSizes checks it).
var dsaturCorpus = []dsaturCase{
	{seed: 1, nv: 60, arcs: 40, maxLen: 2, count: 12, extra: 0},
	{seed: 2, nv: 40, arcs: 50, maxLen: 3, count: 30, extra: 7},
	{seed: 3, nv: 24, arcs: 60, maxLen: 5, count: 90, extra: 5},
	{seed: 4, nv: 30, arcs: 90, maxLen: 6, count: 400, extra: 11},
	{seed: 5, nv: 16, arcs: 40, maxLen: 8, count: 300, extra: 0},
	{seed: 6, nv: 80, arcs: 120, maxLen: 4, count: 160, extra: 3},
}

func (c dsaturCase) family(t testing.TB) (*digraph.Digraph, dipath.Family) {
	nv := 2 + int(c.nv)%120
	g := gen.RandomDAG(nv, int(c.arcs), c.seed)
	fam := gen.RandomWalkFamily(g, int(c.count)%600, 1+int(c.maxLen)%10, c.seed)
	if k := int(c.extra); k > 0 {
		for i, n := 0, len(fam); i < n; i += k {
			fam = append(fam, fam[i])
		}
		for v := 0; v < nv; v += k {
			fam = append(fam, dipath.MustFromVertices(g, digraph.Vertex(v)))
		}
	}
	return g, fam
}

// FuzzDSATURIncidence checks the incidence DSATUR against the dense
// one over the conflict matrix: the colors must be the same, path for
// path.
func FuzzDSATURIncidence(f *testing.F) {
	for _, c := range dsaturCorpus {
		f.Add(c.seed, c.nv, c.arcs, c.maxLen, c.count, c.extra)
	}
	f.Fuzz(func(t *testing.T, seed int64, nv, arcs, maxLen uint8, count uint16, extra uint8) {
		c := dsaturCase{seed: seed, nv: nv, arcs: arcs, maxLen: maxLen, count: count, extra: extra}
		g, fam := c.family(t)
		want := conflict.FromFamily(g, fam).DSATURColoring()
		if got := dsatur(g, fam); !slices.Equal(got, want) {
			t.Fatalf("%+v: incidence DSATUR %v, dense %v", c, got, want)
		}
	})
}

// TestDSATURCorpusComponentSizes pins what FuzzDSATURIncidence's seed
// corpus covers: conflict components of size 1, 2, 3 to 128 and above
// 128 (the largest the component cache keys).
func TestDSATURCorpusComponentSizes(t *testing.T) {
	var one, two, mid, big bool
	for _, c := range dsaturCorpus {
		g, fam := c.family(t)
		for _, comp := range conflict.FromFamily(g, fam).Components() {
			switch n := len(comp); {
			case n == 1:
				one = true
			case n == 2:
				two = true
			case n <= 128:
				mid = true
			default:
				big = true
			}
		}
	}
	if !one || !two || !mid || !big {
		t.Fatalf("corpus components: size 1 %v, 2 %v, ≤128 %v, >128 %v", one, two, mid, big)
	}
}
