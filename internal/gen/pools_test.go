package gen

import (
	"fmt"
	"slices"
	"testing"

	"wavedag/internal/digraph"
)

// poolGraph is a topology the pool generators are compared on, with the
// vertex groups LocalityRequestPool is given over it.
type poolGraph struct {
	name   string
	g      *digraph.Digraph
	groups [][]digraph.Vertex
}

// poolGraphs returns the topologies of the oracle comparisons: random
// DAGs, digraphs with directed cycles, a glued chain whose glue
// vertices sit in two groups, one with failed arcs, and graphs with no
// routable pair.
func poolGraphs(t *testing.T) []poolGraph {
	t.Helper()
	var out []poolGraph
	for seed := int64(1); seed <= 3; seed++ {
		g := RandomDAG(30, 70, seed)
		out = append(out, poolGraph{fmt.Sprintf("random-dag-%d", seed), g, splitGroups(g.NumVertices(), 4)})
	}
	layered, err := RandomNoInternalCycleDAG(40, 5, 5, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, poolGraph{"no-internal-cycle", layered, splitGroups(layered.NumVertices(), 3)})

	// Directed cycles: a forward DAG plus backward arcs, one of which
	// closes a cycle through vertex 0, and parallel arcs.
	cyclic := RandomDAG(25, 50, 7)
	cyclic.MustAddArc(20, 3)
	cyclic.MustAddArc(12, 0)
	cyclic.MustAddArc(0, 12)
	cyclic.MustAddArc(24, 18)
	cyclic.MustAddArc(0, 12)
	out = append(out, poolGraph{"cyclic", cyclic, splitGroups(cyclic.NumVertices(), 5)})

	// A cycle feeding an acyclic tail: the search from the cycle takes
	// the tail's rows whole.
	tail := digraph.New(9)
	for _, a := range [][2]digraph.Vertex{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {2, 6}, {7, 0}, {8, 7}} {
		tail.MustAddArc(a[0], a[1])
	}
	out = append(out, poolGraph{"cycle-into-chain", tail, splitGroups(tail.NumVertices(), 3)})

	parts := make([]*digraph.Digraph, 4)
	for i := range parts {
		p, err := RandomNoInternalCycleDAG(10, 2, 2, 0.25, int64(60+i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	glued, groups, err := GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, poolGraph{"glue-chain", glued, groups})

	failed := RandomDAG(20, 45, 9)
	for a := 0; a < failed.NumArcs(); a += 3 {
		if err := failed.FailArc(digraph.ArcID(a)); err != nil {
			t.Fatal(err)
		}
	}
	out = append(out, poolGraph{"failed-arcs", failed, splitGroups(failed.NumVertices(), 2)})

	out = append(out, poolGraph{"arcless", digraph.New(6), splitGroups(6, 2)})
	out = append(out, poolGraph{"empty", digraph.New(0), nil})
	return out
}

// splitGroups cuts vertices 0..n-1 into k runs of consecutive ids.
func splitGroups(n, k int) [][]digraph.Vertex {
	groups := make([][]digraph.Vertex, k)
	for v := 0; v < n; v++ {
		groups[v*k/n] = append(groups[v*k/n], digraph.Vertex(v))
	}
	return groups
}

// TestLocalityRequestPoolMatchesOracle compares LocalityRequestPool
// entry for entry with the pair-list generator it replaced, including
// an empty local class (no groups) and an empty cross class (one group
// holding every vertex).
func TestLocalityRequestPoolMatchesOracle(t *testing.T) {
	for _, pg := range poolGraphs(t) {
		everything := make([]digraph.Vertex, pg.g.NumVertices())
		for v := range everything {
			everything[v] = digraph.Vertex(v)
		}
		groupings := map[string][][]digraph.Vertex{
			"groups":    pg.groups,
			"no-groups": nil,
			"one-group": {everything},
		}
		for gname, groups := range groupings {
			for _, frac := range []float64{0, 0.3, 0.9, 1} {
				for _, size := range []int{0, 1, 300} {
					want := oracleLocalityRequestPool(pg.g, groups, frac, size, 5)
					got := LocalityRequestPool(pg.g, groups, frac, size, 5)
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s frac=%g size=%d: pool differs from the oracle", pg.name, gname, frac, size)
					}
				}
			}
		}
	}
}

// TestHotspotRequestPoolMatchesOracle compares HotspotRequestPool with
// the pair-list generator it replaced, for hot sets from empty to more
// than the vertex count.
func TestHotspotRequestPoolMatchesOracle(t *testing.T) {
	for _, pg := range poolGraphs(t) {
		n := pg.g.NumVertices()
		for _, hotCount := range []int{0, 1, 5, n, n + 3} {
			for _, hotFrac := range []float64{0, 0.7, 1} {
				for _, size := range []int{0, 300} {
					want := oracleHotspotRequestPool(pg.g, hotCount, hotFrac, size, 6)
					got := HotspotRequestPool(pg.g, hotCount, hotFrac, size, 6)
					if !slices.Equal(got, want) {
						t.Fatalf("%s hotCount=%d hotFrac=%g size=%d: pool differs from the oracle", pg.name, hotCount, hotFrac, size)
					}
				}
			}
		}
	}
}

// TestRequestPoolsDegenerateArguments pins what the pool generators do
// with arguments the pair-list generators panicked on: a negative
// hotCount is an empty hot set, so the pool is uniform, and a negative
// size is an empty pool.
func TestRequestPoolsDegenerateArguments(t *testing.T) {
	g := RandomDAG(30, 70, 3)
	groups := splitGroups(g.NumVertices(), 4)
	cases := []struct {
		name string
		got  [][2]digraph.Vertex
		want [][2]digraph.Vertex
	}{
		{"hotspot negative hotCount", HotspotRequestPool(g, -4, 0.8, 200, 8), oracleHotspotRequestPool(g, 0, 0.8, 200, 8)},
		{"locality negative size", LocalityRequestPool(g, groups, 0.9, -1, 8), nil},
		{"hotspot negative size", HotspotRequestPool(g, 5, 0.8, -1, 8), nil},
	}
	for _, c := range cases {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: got %d entries, want %d", c.name, len(c.got), len(c.want))
		}
	}
}

// FuzzRequestPools decodes a small digraph (cycles and parallel arcs
// allowed), a grouping and the pool parameters from bytes, and compares
// the two pool generators with their pair-list oracles.
func FuzzRequestPools(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 5, 6}, uint8(3), uint8(128), int8(2), uint8(40), int64(1))
	f.Add([]byte{12, 0, 5, 5, 9, 1, 5, 9, 11, 2, 3}, uint8(2), uint8(255), int8(-3), uint8(64), int64(2))
	f.Add([]byte{3}, uint8(1), uint8(0), int8(9), uint8(10), int64(3))
	f.Fuzz(func(t *testing.T, arcs []byte, nGroups, frac uint8, hotCount int8, size uint8, seed int64) {
		if len(arcs) == 0 {
			return
		}
		n := int(arcs[0] % 24)
		g := digraph.New(n)
		for i := 1; n > 1 && i+1 < len(arcs) && i < 160; i += 2 {
			if tail, head := digraph.Vertex(int(arcs[i])%n), digraph.Vertex(int(arcs[i+1])%n); tail != head {
				g.MustAddArc(tail, head)
			}
		}
		var groups [][]digraph.Vertex
		if nGroups %= 6; nGroups > 0 && n > 0 {
			groups = splitGroups(n, int(nGroups))
		}
		p := float64(frac) / 255
		if !slices.Equal(LocalityRequestPool(g, groups, p, int(size), seed), oracleLocalityRequestPool(g, groups, p, int(size), seed)) {
			t.Fatal("LocalityRequestPool differs from the oracle")
		}
		hc := int(hotCount)
		if !slices.Equal(HotspotRequestPool(g, hc, p, int(size), seed), oracleHotspotRequestPool(g, max(hc, 0), p, int(size), seed)) {
			t.Fatal("HotspotRequestPool differs from the oracle")
		}
	})
}
