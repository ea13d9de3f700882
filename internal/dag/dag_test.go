package dag

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"wavedag/internal/digraph"
)

// diamond returns the DAG 0->1, 0->2, 1->3, 2->3.
func diamond() *digraph.Digraph {
	g := digraph.New(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(0, 2)
	g.MustAddArc(1, 3)
	g.MustAddArc(2, 3)
	return g
}

// randomDAG builds a DAG by only adding arcs forward in a fixed vertex order.
func randomDAG(n, m int, rng *rand.Rand) *digraph.Digraph {
	g := digraph.New(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		g.MustAddArc(digraph.Vertex(u), digraph.Vertex(v))
	}
	return g
}

func TestTopoSortDiamond(t *testing.T) {
	order, err := TopoSort(diamond())
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	if len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := diamond()
	a, _ := TopoSort(g)
	b, _ := TopoSort(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
	}
	// Smallest-id-first among ready vertices: 1 before 2 in the diamond.
	if a[1] != 1 || a[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2 3]", a)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	g.MustAddArc(2, 0)
	if _, err := TopoSort(g); err != ErrCyclic {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
	if IsDAG(g) {
		t.Fatal("IsDAG true on a cycle")
	}
	if _, err := TopoIndex(g); err == nil {
		t.Fatal("TopoIndex accepted a cycle")
	}
	if _, err := Levels(g); err == nil {
		t.Fatal("Levels accepted a cycle")
	}
	if _, err := TransitiveClosure(g); err == nil {
		t.Fatal("TransitiveClosure accepted a cycle")
	}
	if _, err := ArcPeelingOrder(g); err == nil {
		t.Fatal("ArcPeelingOrder accepted a cycle")
	}
	if _, err := LongestPathLen(g); err == nil {
		t.Fatal("LongestPathLen accepted a cycle")
	}
}

func TestTopoIndexRespectsArcs(t *testing.T) {
	g := diamond()
	pos, err := TopoIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range g.Arcs() {
		if pos[a.Tail] >= pos[a.Head] {
			t.Fatalf("arc %v violates topo order %v", a, pos)
		}
	}
}

func TestLevels(t *testing.T) {
	g := digraph.New(5)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	g.MustAddArc(0, 2) // level(2) must be 2 via 0->1->2
	g.MustAddArc(2, 3)
	levels, err := Levels(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 0}
	for v, w := range want {
		if levels[v] != w {
			t.Fatalf("level[%d] = %d, want %d (all %v)", v, levels[v], w, levels)
		}
	}
	lp, err := LongestPathLen(g)
	if err != nil || lp != 3 {
		t.Fatalf("LongestPathLen = %d,%v want 3", lp, err)
	}
}

func TestTransitiveClosureDiamond(t *testing.T) {
	reach, err := TransitiveClosure(diamond())
	if err != nil {
		t.Fatal(err)
	}
	if !reach[0].Get(3) || !reach[1].Get(3) || !reach[2].Get(3) {
		t.Fatal("missing reachability to 3")
	}
	if reach[1].Get(2) || reach[2].Get(1) {
		t.Fatal("spurious reachability between 1 and 2")
	}
	for v := 0; v < 4; v++ {
		if !reach[v].Get(v) {
			t.Fatalf("vertex %d does not reach itself", v)
		}
	}
}

func TestReachableAndCoReachable(t *testing.T) {
	g := diamond()
	fwd := ReachableFrom(g, 1)
	if !fwd.Get(1) || !fwd.Get(3) || fwd.Get(0) || fwd.Get(2) {
		t.Fatalf("ReachableFrom(1) wrong")
	}
	back := CoReachableTo(g, 1)
	if !back.Get(1) || !back.Get(0) || back.Get(2) || back.Get(3) {
		t.Fatalf("CoReachableTo(1) wrong")
	}
}

func TestBitSet(t *testing.T) {
	b := NewBitSet(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get/Set broken")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	c := NewBitSet(130)
	c.Set(2)
	c.Or(b)
	if c.Count() != 4 || !c.Get(129) {
		t.Fatal("Or broken")
	}
}

func TestIsArborescence(t *testing.T) {
	// A proper out-tree.
	tree := digraph.New(4)
	tree.MustAddArc(0, 1)
	tree.MustAddArc(0, 2)
	tree.MustAddArc(2, 3)
	if root, ok := IsArborescence(tree); !ok || root != 0 {
		t.Fatalf("IsArborescence(tree) = %d,%v", root, ok)
	}
	// The diamond is not: vertex 3 has in-degree 2.
	if _, ok := IsArborescence(diamond()); ok {
		t.Fatal("diamond accepted as arborescence")
	}
	// Two roots.
	forest := digraph.New(3)
	forest.MustAddArc(0, 2)
	if _, ok := IsArborescence(forest); ok {
		t.Fatal("forest with isolated root accepted")
	}
	// Directed cycle is rejected.
	cyc := digraph.New(2)
	cyc.MustAddArc(0, 1)
	cyc.MustAddArc(1, 0)
	if _, ok := IsArborescence(cyc); ok {
		t.Fatal("cycle accepted as arborescence")
	}
	// Unreachable vertex with in-degree 1.
	g := digraph.New(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(2, 3)
	if _, ok := IsArborescence(g); ok {
		t.Fatal("disconnected graph accepted as arborescence")
	}
	// Empty graph has no root.
	if _, ok := IsArborescence(digraph.New(0)); ok {
		t.Fatal("empty graph accepted as arborescence")
	}
}

// TestArcPeelingOrderInvariant verifies the defining property: when arcs
// are deleted in peeling order, each deleted arc's tail is a source of the
// remaining graph at its turn.
func TestArcPeelingOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomDAG(2+rng.Intn(20), 1+rng.Intn(40), rng)
		order, err := ArcPeelingOrder(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != g.NumArcs() {
			t.Fatalf("order has %d arcs, want %d", len(order), g.NumArcs())
		}
		deleted := make([]bool, g.NumArcs())
		for _, id := range order {
			tail := g.Arc(id).Tail
			for _, in := range g.InArcs(tail) {
				if !deleted[in] {
					t.Fatalf("arc %d peeled while tail %d still has live in-arc %d", id, tail, in)
				}
			}
			deleted[id] = true
		}
	}
}

// oracleArcPeelingOrder is the per-vertex bucket sort ArcPeelingOrder
// used before it read the out-arcs off the topological order: arcs
// appended in id order to the bucket of their tail's topological index,
// buckets concatenated.
func oracleArcPeelingOrder(g *digraph.Digraph) ([]digraph.ArcID, error) {
	pos, err := TopoIndex(g)
	if err != nil {
		return nil, err
	}
	buckets := make([][]digraph.ArcID, g.NumVertices())
	for a := 0; a < g.NumArcs(); a++ {
		t := pos[g.Arc(digraph.ArcID(a)).Tail]
		buckets[t] = append(buckets[t], digraph.ArcID(a))
	}
	out := []digraph.ArcID{}
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out, nil
}

// TestArcPeelingOrderMatchesBucketOracle pins ArcPeelingOrder to the
// bucket sort it replaced, arc for arc, on random DAGs with relabelled
// vertices (so topological and vertex order differ), parallel arcs and
// isolated vertices, and on the empty graph; both reject a cycle.
func TestArcPeelingOrderMatchesBucketOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := []*digraph.Digraph{digraph.New(0), digraph.New(3)}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		perm := rng.Perm(n)
		g := digraph.New(n)
		for i, m := 0, rng.Intn(3*n); i < m; i++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.MustAddArc(digraph.Vertex(perm[u]), digraph.Vertex(perm[v]))
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		got, err := ArcPeelingOrder(g)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracleArcPeelingOrder(g)
		if !slices.Equal(got, want) {
			t.Fatalf("graph %d: order %v, oracle %v", i, got, want)
		}
	}
	cyclic := diamond()
	cyclic.MustAddArc(3, 0)
	if _, err := ArcPeelingOrder(cyclic); !errors.Is(err, ErrCyclic) {
		t.Fatalf("cyclic: err = %v, want ErrCyclic", err)
	}
	if _, err := oracleArcPeelingOrder(cyclic); !errors.Is(err, ErrCyclic) {
		t.Fatalf("cyclic oracle: err = %v, want ErrCyclic", err)
	}
}

// Property: topological order is a permutation and respects every arc.
// TestTopoSortSmallestReadyFirst pins TopoSort's order to its
// definition, checked by a quadratic oracle that takes the smallest
// ready vertex at every step, on random DAGs whose vertex ids are
// permuted so the order is not the id order.
func TestTopoSortSmallestReadyFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		perm := rng.Perm(n)
		g := digraph.New(n)
		for i, m := 0, rng.Intn(4*n); i < m && n > 1; i++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.MustAddArc(digraph.Vertex(perm[u]), digraph.Vertex(perm[v]))
		}
		got, err := TopoSort(g)
		if err != nil {
			t.Fatal(err)
		}
		indeg := make([]int, n)
		for _, a := range g.Arcs() {
			indeg[a.Head]++
		}
		for i := 0; i < n; i++ {
			// Ordered vertices drop to -1, so the first 0 is the
			// smallest ready vertex.
			v := slices.Index(indeg, 0)
			if got[i] != digraph.Vertex(v) {
				t.Fatalf("trial %d: position %d is %d, want %d (order %v)", trial, i, got[i], v, got)
			}
			indeg[v] = -1
			for _, a := range g.OutArcs(digraph.Vertex(v)) {
				indeg[g.Arc(a).Head]--
			}
		}
	}
}

func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(2+rng.Intn(30), rng.Intn(60), rng)
		order, err := TopoSort(g)
		if err != nil {
			return false
		}
		pos := make([]int, g.NumVertices())
		seen := make([]bool, g.NumVertices())
		for i, v := range order {
			if seen[v] {
				return false
			}
			seen[v] = true
			pos[v] = i
		}
		for _, a := range g.Arcs() {
			if pos[a.Tail] >= pos[a.Head] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TransitiveClosure agrees with BFS reachability.
func TestTransitiveClosureMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(2+rng.Intn(15), rng.Intn(30), rng)
		reach, err := TransitiveClosure(g)
		if err != nil {
			return false
		}
		for v := 0; v < g.NumVertices(); v++ {
			bfs := ReachableFrom(g, digraph.Vertex(v))
			for u := 0; u < g.NumVertices(); u++ {
				if bfs.Get(u) != reach[v].Get(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
