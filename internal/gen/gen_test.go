package gen

import (
	"math/rand"
	"testing"

	"wavedag/internal/conflict"
	"wavedag/internal/cycles"
	"wavedag/internal/dag"
	"wavedag/internal/digraph"
	"wavedag/internal/load"
	"wavedag/internal/upp"
)

func TestFig1Staircase(t *testing.T) {
	for k := 2; k <= 7; k++ {
		g, fam, err := Fig1Staircase(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !dag.IsDAG(g) {
			t.Fatalf("k=%d: staircase is not a DAG", k)
		}
		if err := fam.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(fam) != k {
			t.Fatalf("k=%d: family size %d", k, len(fam))
		}
		if pi := load.Pi(g, fam); pi != 2 {
			t.Fatalf("k=%d: π = %d, want 2", k, pi)
		}
		cg := conflict.FromFamily(g, fam)
		if !cg.IsComplete() {
			t.Fatalf("k=%d: conflict graph is not complete", k)
		}
		if chi := cg.ChromaticNumber(); chi != k {
			t.Fatalf("k=%d: w = %d, want %d", k, chi, k)
		}
	}
}

func TestFig1StaircaseRejectsSmallK(t *testing.T) {
	if _, _, err := Fig1Staircase(1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestFig3Instance(t *testing.T) {
	g, fam := Fig3()
	if !dag.IsDAG(g) {
		t.Fatal("not a DAG")
	}
	if err := fam.Validate(g); err != nil {
		t.Fatal(err)
	}
	if pi := load.Pi(g, fam); pi != 2 {
		t.Fatalf("π = %d, want 2", pi)
	}
	if !cycles.HasInternalCycle(g) || cycles.IndependentCycleCount(g) != 1 {
		t.Fatal("Figure 3 graph must have exactly one internal cycle")
	}
	cg := conflict.FromFamily(g, fam)
	if !cg.IsCycle() || cg.N() != 5 {
		t.Fatal("conflict graph must be C5")
	}
	if chi := cg.ChromaticNumber(); chi != 3 {
		t.Fatalf("w = %d, want 3", chi)
	}
}

func TestInternalCycleGadget(t *testing.T) {
	for k := 2; k <= 8; k++ {
		g, fam, err := InternalCycleGadget(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !dag.IsDAG(g) {
			t.Fatalf("k=%d: not a DAG", k)
		}
		if err := fam.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(fam) != 2*k+1 {
			t.Fatalf("k=%d: family size %d, want %d", k, len(fam), 2*k+1)
		}
		if pi := load.Pi(g, fam); pi != 2 {
			t.Fatalf("k=%d: π = %d, want 2", k, pi)
		}
		// UPP with exactly one internal cycle of length 2k.
		if ok, u, v, _ := upp.IsUPP(g); !ok {
			t.Fatalf("k=%d: gadget not UPP (witness %d,%d)", k, u, v)
		}
		if got := cycles.IndependentCycleCount(g); got != 1 {
			t.Fatalf("k=%d: internal cycle count = %d", k, got)
		}
		cg := conflict.FromFamily(g, fam)
		if !cg.IsCycle() {
			t.Fatalf("k=%d: conflict graph not a cycle (m=%d, n=%d)", k, cg.NumEdges(), cg.N())
		}
		if chi := cg.ChromaticNumber(); chi != 3 {
			t.Fatalf("k=%d: w = %d, want 3 (odd conflict cycle)", k, chi)
		}
	}
	if _, _, err := InternalCycleGadget(1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestHavetInstance(t *testing.T) {
	g, fam := Havet()
	if !dag.IsDAG(g) {
		t.Fatal("not a DAG")
	}
	if err := fam.Validate(g); err != nil {
		t.Fatal(err)
	}
	if ok, _, _, _ := upp.IsUPP(g); !ok {
		t.Fatal("Havet graph must be UPP")
	}
	if got := cycles.IndependentCycleCount(g); got != 1 {
		t.Fatalf("internal cycle count = %d, want 1", got)
	}
	if pi := load.Pi(g, fam); pi != 2 {
		t.Fatalf("π = %d, want 2", pi)
	}
	cg := conflict.FromFamily(g, fam)
	if cg.N() != 8 || cg.NumEdges() != 12 {
		t.Fatalf("conflict graph n=%d m=%d, want 8,12", cg.N(), cg.NumEdges())
	}
	if alpha := cg.IndependenceNumber(); alpha != 3 {
		t.Fatalf("α = %d, want 3", alpha)
	}
	if chi := cg.ChromaticNumber(); chi != 3 {
		t.Fatalf("w = %d, want 3", chi)
	}
	// Degree sequence of C8 + antipodal chords: 3-regular.
	for v := 0; v < cg.N(); v++ {
		if cg.Degree(v) != 3 {
			t.Fatalf("conflict graph not 3-regular at %d", v)
		}
	}
}

// Theorem 7: replicating the Havet family h times gives π = 2h and
// w = ⌈8h/3⌉ (checked exactly for small h via the exact solver).
func TestHavetReplicationRatio(t *testing.T) {
	g, fam := Havet()
	for h := 1; h <= 3; h++ {
		rep := fam.Replicate(h)
		pi := load.Pi(g, rep)
		if pi != 2*h {
			t.Fatalf("h=%d: π = %d, want %d", h, pi, 2*h)
		}
		cg := conflict.FromFamily(g, rep)
		chi := cg.ChromaticNumber()
		want := (8*h + 2) / 3
		if chi != want {
			t.Fatalf("h=%d: w = %d, want ⌈8h/3⌉ = %d", h, chi, want)
		}
	}
}

func TestDisjointUnion(t *testing.T) {
	g1, f1 := Fig3()
	g2, f2 := Havet()
	g, f := DisjointUnion(Instance{g1, f1}, Instance{g2, f2})
	if g.NumVertices() != g1.NumVertices()+g2.NumVertices() {
		t.Fatal("vertex count wrong")
	}
	if g.NumArcs() != g1.NumArcs()+g2.NumArcs() {
		t.Fatal("arc count wrong")
	}
	if len(f) != len(f1)+len(f2) {
		t.Fatal("family size wrong")
	}
	if err := f.Validate(g); err != nil {
		t.Fatal(err)
	}
	if got := cycles.IndependentCycleCount(g); got != 2 {
		t.Fatalf("cycle count = %d, want 2", got)
	}
	if pi := load.Pi(g, f); pi != 2 {
		t.Fatalf("π = %d, want 2", pi)
	}
}

func TestRandomDAG(t *testing.T) {
	g := RandomDAG(20, 40, 1)
	if !dag.IsDAG(g) {
		t.Fatal("RandomDAG returned a cyclic digraph")
	}
	if g.NumVertices() != 20 || g.NumArcs() != 40 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumArcs())
	}
	// Determinism.
	h := RandomDAG(20, 40, 1)
	if !digraph.Equal(g, h) {
		t.Fatal("RandomDAG not deterministic")
	}
	// Saturation: more arcs than possible.
	tiny := RandomDAG(3, 100, 2)
	if tiny.NumArcs() != 3 {
		t.Fatalf("saturated graph has %d arcs, want 3", tiny.NumArcs())
	}
	if RandomDAG(1, 5, 3).NumArcs() != 0 {
		t.Fatal("single-vertex graph must have no arcs")
	}
}

func TestRandomNoInternalCycleDAG(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g, err := RandomNoInternalCycleDAG(12, 3, 3, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !dag.IsDAG(g) {
			t.Fatalf("seed %d: cyclic", seed)
		}
		if cycles.HasInternalCycle(g) {
			t.Fatalf("seed %d: internal cycle present", seed)
		}
		// Internal vertices really are internal.
		for v := 0; v < 12; v++ {
			u := digraph.Vertex(v)
			if g.InDegree(u) == 0 || g.OutDegree(u) == 0 {
				t.Fatalf("seed %d: designated internal vertex %d is a source or sink", seed, v)
			}
		}
	}
	if _, err := RandomNoInternalCycleDAG(5, 0, 1, 0.1, 1); err == nil {
		t.Fatal("zero sources accepted")
	}
}

func TestRandomUPPDAG(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomUPPDAG(15, 60, seed)
		if !dag.IsDAG(g) {
			t.Fatalf("seed %d: cyclic", seed)
		}
		if ok, u, v, err := upp.IsUPP(g); err != nil || !ok {
			t.Fatalf("seed %d: not UPP (witness %d,%d, err %v)", seed, u, v, err)
		}
	}
	if RandomUPPDAG(1, 10, 0).NumArcs() != 0 {
		t.Fatal("tiny UPP graph should be empty")
	}
}

func TestRandomArborescence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomArborescence(17, seed)
		root, ok := dag.IsArborescence(g)
		if !ok || root != 0 {
			t.Fatalf("seed %d: not an arborescence rooted at 0", seed)
		}
		// Arborescences are UPP and have no cycle at all.
		if ok, _, _, _ := upp.IsUPP(g); !ok {
			t.Fatalf("seed %d: arborescence not UPP", seed)
		}
		if cycles.HasInternalCycle(g) {
			t.Fatalf("seed %d: arborescence has an internal cycle", seed)
		}
	}
}

func TestRandomWalkFamily(t *testing.T) {
	g := RandomDAG(25, 60, 9)
	fam := RandomWalkFamily(g, 30, 6, 10)
	if err := fam.Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, p := range fam {
		if p.NumArcs() < 1 || p.NumArcs() > 6 {
			t.Fatalf("walk length %d out of [1,6]", p.NumArcs())
		}
	}
	if len(RandomWalkFamily(digraph.New(0), 5, 3, 1)) != 0 {
		t.Fatal("empty graph should yield empty family")
	}
	if len(RandomWalkFamily(g, 5, 0, 1)) != 0 {
		t.Fatal("maxLen 0 should yield empty family")
	}
}

func TestAllSourceSinkFamily(t *testing.T) {
	g, _, err := InternalCycleGadget(3)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := AllSourceSinkFamily(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := fam.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Each a_i reaches d_i and d_{i-1}: 2 per source, 3 sources... k=3:
	// sources a1..a3, sinks d1..d3, each a_i reaches exactly {d_i, d_i-1}.
	if len(fam) != 6 {
		t.Fatalf("family size = %d, want 6", len(fam))
	}
	// Non-UPP graph is rejected.
	d := digraph.New(4)
	d.MustAddArc(0, 1)
	d.MustAddArc(0, 2)
	d.MustAddArc(1, 3)
	d.MustAddArc(2, 3)
	if _, err := AllSourceSinkFamily(d); err == nil {
		t.Fatal("non-UPP graph accepted")
	}
}

func TestSubpathFamily(t *testing.T) {
	g := RandomDAG(20, 50, 4)
	fam, err := SubpathFamily(g, 25, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := fam.Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, p := range fam {
		if p.NumArcs() < 1 {
			t.Fatal("zero-arc subpath produced")
		}
	}
	cyc := digraph.New(2)
	cyc.MustAddArc(0, 1)
	cyc.MustAddArc(1, 0)
	if _, err := SubpathFamily(cyc, 5, 1); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	_ = rng
	a := RandomUPPDAG(12, 40, 7)
	b := RandomUPPDAG(12, 40, 7)
	if !digraph.Equal(a, b) {
		t.Fatal("RandomUPPDAG not deterministic")
	}
	c, _ := RandomNoInternalCycleDAG(8, 2, 2, 0.2, 7)
	d, _ := RandomNoInternalCycleDAG(8, 2, 2, 0.2, 7)
	if !digraph.Equal(c, d) {
		t.Fatal("RandomNoInternalCycleDAG not deterministic")
	}
}

func TestGlueChain(t *testing.T) {
	parts := make([]*digraph.Digraph, 4)
	total := 0
	for i := range parts {
		g, err := RandomNoInternalCycleDAG(10, 2, 2, 0.25, int64(60+i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = g
		total += g.NumVertices()
	}
	g, partVerts, err := GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
	// Three glue points merge one vertex pair each.
	if got, want := g.NumVertices(), total-(len(parts)-1); got != want {
		t.Fatalf("glued graph has %d vertices, want %d", got, want)
	}
	// One weakly connected component: the layout PartitionComponents
	// cannot split...
	labels := g.ComponentLabels()
	for _, l := range labels {
		if l != 0 {
			t.Fatal("glued graph is not weakly connected")
		}
	}
	// ...but PartitionRegions can: at least one region per part, and no
	// region spans two non-adjacent parts.
	regions := g.PartitionRegions()
	if regions.NumRegions() < len(parts) {
		t.Fatalf("only %d regions for %d glued parts", regions.NumRegions(), len(parts))
	}
	// The glued graph must stay a DAG.
	if _, err := dag.TopoSort(g); err != nil {
		t.Fatalf("glued graph is not a DAG: %v", err)
	}
	// Part vertex lists translate faithfully: every part arc exists
	// between the translated endpoints.
	for i, part := range parts {
		for _, a := range part.Arcs() {
			if _, ok := g.ArcBetween(partVerts[i][a.Tail], partVerts[i][a.Head]); !ok {
				t.Fatalf("part %d arc %d->%d missing after gluing", i, a.Tail, a.Head)
			}
		}
	}
	// Vertices of non-adjacent parts never share a region.
	if _, _, _, ok := regions.CommonRegion(partVerts[0][0], partVerts[3][0]); ok {
		t.Fatal("vertices of parts 0 and 3 share a region")
	}
}

func TestLocalityRequestPoolEmpty(t *testing.T) {
	// A graph with no routable pairs yields an empty pool, not a panic.
	if pool := LocalityRequestPool(digraph.New(5), nil, 0.9, 10, 1); len(pool) != 0 {
		t.Fatalf("pool over an arcless graph has %d entries", len(pool))
	}
}

// TestHotspotRequestPool checks the overload generator: all entries are
// routable, roughly hotFrac of them live inside the hot set, and the
// hot set's pairs do concentrate load on a few arcs relative to the
// uniform pool.
func TestHotspotRequestPool(t *testing.T) {
	g, err := RandomNoInternalCycleDAG(40, 6, 6, 0.2, 81)
	if err != nil {
		t.Fatal(err)
	}
	const size = 2000
	pool := HotspotRequestPool(g, 6, 0.8, size, 82)
	if len(pool) != size {
		t.Fatalf("pool has %d entries, want %d", len(pool), size)
	}
	// Every pair must be routable.
	reach := func(src, dst digraph.Vertex) bool {
		seen := make([]bool, g.NumVertices())
		queue := []digraph.Vertex{src}
		seen[src] = true
		for head := 0; head < len(queue); head++ {
			if queue[head] == dst {
				return true
			}
			for _, a := range g.OutArcs(queue[head]) {
				if h := g.Arc(a).Head; !seen[h] {
					seen[h] = true
					queue = append(queue, h)
				}
			}
		}
		return false
	}
	for i, p := range pool {
		if p[0] == p[1] || !reach(p[0], p[1]) {
			t.Fatalf("entry %d: pair %v not routable", i, p)
		}
	}
	// Concentration: the most frequent (src, dst) pair must appear far
	// more often than under the uniform pool (hot pairs are drawn from a
	// tiny candidate set).
	count := make(map[[2]digraph.Vertex]int)
	for _, p := range pool {
		count[p]++
	}
	maxHot := 0
	for _, c := range count {
		if c > maxHot {
			maxHot = c
		}
	}
	uniform := HotspotRequestPool(g, 6, 0, size, 83)
	countU := make(map[[2]digraph.Vertex]int)
	for _, p := range uniform {
		countU[p]++
	}
	maxU := 0
	for _, c := range countU {
		if c > maxU {
			maxU = c
		}
	}
	if maxHot < 2*maxU {
		t.Fatalf("hot pool does not concentrate: max pair count %d (hot) vs %d (uniform)", maxHot, maxU)
	}
	// Degenerate graphs yield an empty pool, not a panic.
	if p := HotspotRequestPool(digraph.New(5), 3, 0.8, 10, 84); len(p) != 0 {
		t.Fatalf("pool over an arcless graph has %d entries", len(p))
	}
}
