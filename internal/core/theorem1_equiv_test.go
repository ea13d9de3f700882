package core

import (
	"fmt"
	"slices"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

// requirePeelMatchesOracle runs the production peel and the oracle peel
// on one family and fails unless both return the same colors and π, or
// the same error.
func requirePeelMatchesOracle(t testing.TB, name string, g *digraph.Digraph, fam dipath.Family) *Result {
	t.Helper()
	got, err := peelTheorem1(g, fam)
	want, werr := oraclePeelTheorem1(g, fam)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: peel error %v, oracle error %v", name, err, werr)
	}
	if err != nil {
		return nil
	}
	if !slices.Equal(got.Colors, want.Colors) || got.NumColors != want.NumColors || got.Pi != want.Pi {
		t.Fatalf("%s: peel colors %v (λ=%d, palette %d), oracle %v (λ=%d, palette %d)",
			name, got.Colors, got.NumColors, got.Pi, want.Colors, want.NumColors, want.Pi)
	}
	return got
}

// planShapedFamilies returns min-load and shortest-path families over a
// RandomNoInternalCycleDAG with nInt internal vertices and the
// plan-theorem1 degree parameters, routed from count seeded reachable
// requests.
func planShapedFamilies(t testing.TB, nInt, sources, count int, seed int64) (*digraph.Digraph, map[string]dipath.Family) {
	t.Helper()
	g, err := gen.RandomNoInternalCycleDAG(nInt, sources, sources, 0.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(g).AllToAll()
	reqs := make([]route.Request, count)
	for i := range reqs {
		reqs[i] = pool[(i*7919+int(seed))%len(pool)]
	}
	minLoad, err := route.NewRouter(g).MinLoadSequential(reqs)
	if err != nil {
		t.Fatal(err)
	}
	shortest, err := route.NewRouter(g).ShortestPaths(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return g, map[string]dipath.Family{"min-load": minLoad, "shortest": shortest}
}

// TestTheorem1PeelMatchesOracle checks that the peel which resumes its
// duplicate scan and tracks P0's colors in a bitset colors every family
// exactly as the restarting oracle peel does: plan-shaped families at
// several sizes under both routings, random-walk families, single-vertex
// dipaths, duplicated dipaths and the empty family.
func TestTheorem1PeelMatchesOracle(t *testing.T) {
	sizes := []struct{ nInt, sources, count int }{{20, 3, 120}, {80, 4, 700}, {200, 6, 2000}}
	if !testing.Short() {
		sizes = append(sizes, struct{ nInt, sources, count int }{500, 8, 5000})
	}
	for _, sz := range sizes {
		g, fams := planShapedFamilies(t, sz.nInt, sz.sources, sz.count, int64(sz.nInt))
		for name, fam := range fams {
			res := requirePeelMatchesOracle(t, fmt.Sprintf("n=%d/%s", sz.nInt, name), g, fam)
			if pi := load.Pi(g, fam); res.NumColors != pi {
				t.Fatalf("n=%d/%s: λ=%d, π=%d", sz.nInt, name, res.NumColors, pi)
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		g, err := gen.RandomNoInternalCycleDAG(6+int(seed%20), 1+int(seed%4), 1+int(seed%3), 0.1+float64(seed%5)/10, seed)
		if err != nil {
			t.Fatal(err)
		}
		walks := gen.RandomWalkFamily(g, 10+int(seed%7)*15, 2+int(seed%9), seed+1)
		requirePeelMatchesOracle(t, fmt.Sprintf("walks/seed=%d", seed), g, walks)
		// Duplicated dipaths and single-vertex dipaths mixed in.
		mixed := append(walks.Replicate(2), walks[:len(walks)/3]...)
		for v := 0; v < g.NumVertices(); v += 3 {
			mixed = append(mixed, dipath.MustFromVertices(g, digraph.Vertex(v)))
		}
		requirePeelMatchesOracle(t, fmt.Sprintf("mixed/seed=%d", seed), g, mixed)
	}
	g, _ := gen.RandomNoInternalCycleDAG(10, 2, 2, 0.3, 1)
	requirePeelMatchesOracle(t, "empty", g, nil)
	requirePeelMatchesOracle(t, "single-vertex", g, dipath.Family{dipath.MustFromVertices(g, 0), dipath.MustFromVertices(g, 0)})
}

// FuzzTheorem1Peel decodes bytes into a family over a small DAG without
// internal cycle and checks that the peel's colors equal the oracle
// peel's, that λ = π, and that the coloring verifies. The first byte
// seeds the topology; the second picks how requests become dipaths
// (min-load routing, shortest routing or the requests' random walks);
// every following byte pair is one request from the topology's
// reachable pairs, a single-vertex dipath (first byte ≡ 0 mod 17) or a
// copy of an earlier request (first byte ≡ 1 mod 17).
func FuzzTheorem1Peel(f *testing.F) {
	f.Add([]byte{0, 0, 3, 9, 3, 9, 3, 9, 4, 1, 7, 2, 5, 5, 18, 2})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{42, 2, 17, 0, 200, 100, 35, 1, 90, 9, 9, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("not enough bytes")
		}
		seed := int64(data[0])
		g, err := gen.RandomNoInternalCycleDAG(4+int(seed%24), 1+int(seed%3), 1+int(seed/3%3), float64(seed%7)/10, seed)
		if err != nil {
			t.Fatal(err)
		}
		pool := route.NewRouter(g).AllToAll()
		if len(pool) == 0 {
			t.Skip("no routable pair")
		}
		var reqs []route.Request
		for i := 2; i+1 < len(data) && len(reqs) < 256; i += 2 {
			x, y := int(data[i]), int(data[i+1])
			switch {
			case x%17 == 0:
				v := digraph.Vertex(y % g.NumVertices())
				reqs = append(reqs, route.Request{Src: v, Dst: v})
			case x%17 == 1 && len(reqs) > 0:
				reqs = append(reqs, reqs[y%len(reqs)])
			default:
				reqs = append(reqs, pool[(x<<8|y)%len(pool)])
			}
		}
		var fam dipath.Family
		r := route.NewRouter(g)
		switch data[1] % 3 {
		case 0:
			fam, err = r.MinLoadSequential(reqs)
		case 1:
			fam, err = r.ShortestPaths(reqs)
		default:
			walks := gen.RandomWalkFamily(g, len(reqs), 1+int(data[1]%9), seed)
			fam = walks
		}
		if err != nil {
			t.Fatal(err)
		}
		res := requirePeelMatchesOracle(t, "fuzz", g, fam)
		if res == nil {
			t.Fatal("peel failed on a DAG without internal cycle")
		}
		if pi := load.Pi(g, fam); pi > 0 && res.NumColors != pi {
			t.Fatalf("λ=%d, π=%d", res.NumColors, pi)
		}
		if err := Verify(g, fam, res); err != nil {
			t.Fatal(err)
		}
	})
}
