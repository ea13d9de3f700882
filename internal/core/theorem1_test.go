package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"wavedag/internal/conflict"
	"wavedag/internal/dag"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
)

// requireTheorem1 runs ColorNoInternalCycle and asserts validity and
// w = π (for π >= 1).
func requireTheorem1(t *testing.T, g *digraph.Digraph, fam dipath.Family) *Result {
	t.Helper()
	res, err := ColorNoInternalCycle(g, fam)
	if err != nil {
		t.Fatalf("ColorNoInternalCycle: %v", err)
	}
	if err := Verify(g, fam, res); err != nil {
		t.Fatalf("coloring invalid: %v", err)
	}
	pi := load.Pi(g, fam)
	if res.Pi != pi {
		t.Fatalf("reported π = %d, want %d", res.Pi, pi)
	}
	if pi >= 1 && res.NumColors != pi {
		t.Fatalf("used %d colors, want exactly π = %d", res.NumColors, pi)
	}
	return res
}

func TestTheorem1EmptyFamily(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	res, err := ColorNoInternalCycle(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Colors) != 0 || res.Pi != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestTheorem1SingleArc(t *testing.T) {
	g := digraph.New(2)
	g.MustAddArc(0, 1)
	fam := dipath.Family{dipath.MustFromVertices(g, 0, 1)}
	res := requireTheorem1(t, g, fam)
	if res.Colors[0] != 0 {
		t.Fatalf("colors = %v", res.Colors)
	}
}

func TestTheorem1PathGraphStack(t *testing.T) {
	// k identical dipaths on a path graph: π = k, all colors distinct.
	g := digraph.New(5)
	for i := 0; i < 4; i++ {
		g.MustAddArc(digraph.Vertex(i), digraph.Vertex(i+1))
	}
	base := dipath.MustFromVertices(g, 0, 1, 2, 3, 4)
	for k := 1; k <= 6; k++ {
		fam := dipath.Family{base}.Replicate(k)
		res := requireTheorem1(t, g, fam)
		if res.NumColors != k {
			t.Fatalf("k=%d: colors=%d", k, res.NumColors)
		}
	}
}

func TestTheorem1IntervalFamily(t *testing.T) {
	// Dipaths on a path graph are intervals; w = π is the classic
	// interval-graph coloring fact, here recovered as a special case.
	g := digraph.New(8)
	for i := 0; i < 7; i++ {
		g.MustAddArc(digraph.Vertex(i), digraph.Vertex(i+1))
	}
	fam := dipath.Family{
		dipath.MustFromVertices(g, 0, 1, 2, 3),
		dipath.MustFromVertices(g, 2, 3, 4),
		dipath.MustFromVertices(g, 3, 4, 5, 6),
		dipath.MustFromVertices(g, 1, 2, 3, 4, 5),
		dipath.MustFromVertices(g, 5, 6, 7),
		dipath.MustFromVertices(g, 0, 1),
		dipath.MustFromVertices(g, 6, 7),
	}
	requireTheorem1(t, g, fam)
}

func TestTheorem1OutTree(t *testing.T) {
	// Rooted trees are internal-cycle-free; the paper's §1 notes w = π for
	// them (E11).
	g := gen.RandomArborescence(40, 3)
	fam := gen.RandomWalkFamily(g, 60, 8, 4)
	requireTheorem1(t, g, fam)
}

func TestTheorem1SingleVertexPathsColored(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	fam := dipath.Family{
		dipath.MustFromVertices(g, 2),
		dipath.MustFromVertices(g, 0, 1),
	}
	res, err := ColorNoInternalCycle(g, fam)
	if err != nil {
		t.Fatal(err)
	}
	if res.Colors[0] < 0 || res.Colors[1] < 0 {
		t.Fatalf("colors = %v", res.Colors)
	}
}

func TestTheorem1RejectsInternalCycle(t *testing.T) {
	g, fam := gen.Fig3()
	_, err := ColorNoInternalCycle(g, fam)
	if !errors.Is(err, ErrInternalCycle) {
		t.Fatalf("err = %v, want ErrInternalCycle", err)
	}
}

func TestTheorem1RejectsCyclicDigraph(t *testing.T) {
	g := digraph.New(2)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 0)
	_, err := ColorNoInternalCycle(g, nil)
	if !errors.Is(err, dag.ErrCyclic) {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
}

// TestColorNoInternalCycleKeepsHypothesisChecks: ColorDAG goes straight
// to the peel once its cycle count is zero, but the public entry point
// still checks the hypothesis itself. A cyclic digraph is ErrCyclic and
// a DAG with an internal cycle ErrInternalCycle, with or without paths,
// and ColorDAG never reports Theorem 1 on either.
func TestColorNoInternalCycleKeepsHypothesisChecks(t *testing.T) {
	cyclic := digraph.New(3)
	cyclic.MustAddArc(0, 1)
	cyclic.MustAddArc(1, 2)
	cyclic.MustAddArc(2, 0)
	gadget, gadgetFam, err := gen.InternalCycleGadget(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *digraph.Digraph
		fam  dipath.Family
		want error
	}{
		{"cyclic, empty", cyclic, nil, dag.ErrCyclic},
		{"cyclic, paths", cyclic, dipath.Family{dipath.MustFromVertices(cyclic, 0, 1, 2), dipath.MustFromVertices(cyclic, 1, 2)}, dag.ErrCyclic},
		{"internal cycle, empty", gadget, nil, ErrInternalCycle},
		{"internal cycle, paths", gadget, gadgetFam, ErrInternalCycle},
	} {
		if _, err := ColorNoInternalCycle(tc.g, tc.fam); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, method, err := ColorDAG(tc.g, tc.fam); err == nil && method == MethodTheorem1 {
			t.Fatalf("%s: ColorDAG dispatched Theorem 1", tc.name)
		}
	}
}

func TestTheorem1RejectsForeignPaths(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	other := digraph.New(3)
	other.MustAddArc(1, 2)
	fam := dipath.Family{dipath.MustFromVertices(other, 1, 2)}
	if _, err := ColorNoInternalCycle(g, fam); err == nil {
		t.Fatal("foreign path accepted")
	}
}

// The diamond forces the recoloring machinery: paths meeting at the sink
// side arcs must be untangled.
func TestTheorem1Diamond(t *testing.T) {
	g := digraph.New(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(0, 2)
	g.MustAddArc(1, 3)
	g.MustAddArc(2, 3)
	fam := dipath.Family{
		dipath.MustFromVertices(g, 0, 1, 3),
		dipath.MustFromVertices(g, 0, 2, 3),
		dipath.MustFromVertices(g, 0, 1),
		dipath.MustFromVertices(g, 1, 3),
		dipath.MustFromVertices(g, 0, 2),
		dipath.MustFromVertices(g, 2, 3),
	}
	requireTheorem1(t, g, fam)
}

func TestTheorem1RandomNoInternalCycleDAGs(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g, err := gen.RandomNoInternalCycleDAG(10+int(seed%7), 3, 3, 0.25, seed)
		if err != nil {
			t.Fatal(err)
		}
		fam := gen.RandomWalkFamily(g, 25, 6, seed*7+1)
		requireTheorem1(t, g, fam)
	}
}

func TestTheorem1LargeRandom(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(120, 12, 12, 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	fam := gen.RandomWalkFamily(g, 400, 10, 43)
	requireTheorem1(t, g, fam)
}

// Property-based: for any seeded random internal-cycle-free instance the
// algorithm uses exactly π colors and the coloring is proper.
func TestTheorem1Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nInt := 4 + rng.Intn(14)
		g, err := gen.RandomNoInternalCycleDAG(nInt, 1+rng.Intn(4), 1+rng.Intn(4), rng.Float64()*0.4, seed)
		if err != nil {
			return false
		}
		fam := gen.RandomWalkFamily(g, 5+rng.Intn(40), 1+rng.Intn(8), seed+1)
		res, err := ColorNoInternalCycle(g, fam)
		if err != nil {
			return false
		}
		if Verify(g, fam, res) != nil {
			return false
		}
		pi := load.Pi(g, fam)
		return pi == 0 || res.NumColors == pi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The exact chromatic number must agree with π on internal-cycle-free
// instances (cross-validation against the independent exact solver).
func TestTheorem1AgreesWithExactChi(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g, err := gen.RandomNoInternalCycleDAG(8, 2, 2, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		fam := gen.RandomWalkFamily(g, 14, 5, seed+100)
		pi := load.Pi(g, fam)
		if pi == 0 {
			continue
		}
		cg := conflict.FromFamily(g, fam)
		if chi := cg.ChromaticNumber(); chi != pi {
			t.Fatalf("seed %d: χ = %d, π = %d — Theorem 1 contradicted?!", seed, chi, pi)
		}
		requireTheorem1(t, g, fam)
	}
}

// Shrinking/peeling invariant stress: families where many dipaths start
// at the same source arc (forcing the fresh-color branch) and families of
// single-arc dipaths.
func TestTheorem1SingleArcFamilies(t *testing.T) {
	g := digraph.New(6)
	arcs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 3}, {3, 5}}
	for _, a := range arcs {
		g.MustAddArc(digraph.Vertex(a[0]), digraph.Vertex(a[1]))
	}
	var fam dipath.Family
	for _, a := range arcs {
		fam = append(fam, dipath.MustFromVertices(g, digraph.Vertex(a[0]), digraph.Vertex(a[1])))
		fam = append(fam, dipath.MustFromVertices(g, digraph.Vertex(a[0]), digraph.Vertex(a[1])))
	}
	res := requireTheorem1(t, g, fam)
	if res.NumColors != 2 {
		t.Fatalf("NumColors = %d, want 2", res.NumColors)
	}
}

func TestVerifyRejectsBadResults(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	fam := dipath.Family{
		dipath.MustFromVertices(g, 0, 1, 2),
		dipath.MustFromVertices(g, 1, 2),
	}
	if err := Verify(g, fam, nil); err == nil {
		t.Fatal("nil result verified")
	}
	if err := Verify(g, fam, &Result{Colors: []int{0}}); err == nil {
		t.Fatal("short result verified")
	}
	if err := Verify(g, fam, &Result{Colors: []int{0, 0}}); err == nil {
		t.Fatal("conflicting coloring verified")
	}
	if err := Verify(g, fam, &Result{Colors: []int{0, 1}}); err != nil {
		t.Fatalf("good coloring rejected: %v", err)
	}
}
