package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"wavedag/internal/conflict"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
)

// requireTheorem6 runs ColorOneInternalCycleUPP and asserts validity and
// the ⌈4π/3⌉ bound.
func requireTheorem6(t *testing.T, g *digraph.Digraph, fam dipath.Family) *Result {
	t.Helper()
	res, err := ColorOneInternalCycleUPP(g, fam)
	if err != nil {
		t.Fatalf("ColorOneInternalCycleUPP: %v", err)
	}
	if err := Verify(g, fam, res); err != nil {
		t.Fatalf("coloring invalid: %v", err)
	}
	pi := load.Pi(g, fam)
	bound := (4*pi + 2) / 3
	if pi >= 1 && res.NumColors > bound {
		t.Fatalf("used %d colors, bound ⌈4π/3⌉ = %d (π = %d)", res.NumColors, bound, pi)
	}
	return res
}

func TestTheorem6HavetBase(t *testing.T) {
	g, fam := gen.Havet()
	res := requireTheorem6(t, g, fam)
	// π = 2, so the bound is ⌈8/3⌉ = 3; the instance genuinely needs 3.
	if res.NumColors != 3 {
		t.Fatalf("NumColors = %d, want 3", res.NumColors)
	}
}

// Theorem 7: the replicated Havet instance reaches the bound exactly:
// π = 2h and the optimal w is ⌈8h/3⌉; our constructive coloring must
// stay within ⌈4π/3⌉ = ⌈8h/3⌉, hence is optimal on this instance.
func TestTheorem6HavetReplicated(t *testing.T) {
	g, fam := gen.Havet()
	for h := 1; h <= 8; h++ {
		rep := fam.Replicate(h)
		res := requireTheorem6(t, g, rep)
		pi := 2 * h
		want := (8*h + 2) / 3
		if res.Pi != pi {
			t.Fatalf("h=%d: π = %d, want %d", h, res.Pi, pi)
		}
		// The conflict-graph independence number is 3, so ⌈8h/3⌉ colors
		// are necessary; the theorem guarantees ⌈8h/3⌉ are sufficient.
		if res.NumColors != want {
			t.Fatalf("h=%d: NumColors = %d, want exactly %d", h, res.NumColors, want)
		}
	}
}

func TestTheorem6InternalCycleGadget(t *testing.T) {
	for k := 2; k <= 6; k++ {
		g, fam, err := gen.InternalCycleGadget(k)
		if err != nil {
			t.Fatal(err)
		}
		res := requireTheorem6(t, g, fam)
		// π = 2, odd conflict cycle: w = 3 needed; bound is 3.
		if res.NumColors != 3 {
			t.Fatalf("k=%d: NumColors = %d, want 3", k, res.NumColors)
		}
		// A single-vertex dipath conflicts with nothing and must not
		// stop the split of the cycle arc.
		p, err := dipath.FromVertices(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		requireTheorem6(t, g, append(slices.Clone(fam), p))
	}
}

// The C5 gadget replicated h times: π = 2h, the paper notes w = ⌈5h/2⌉
// (ratio 5/4 < 4/3); our algorithm must stay within ⌈4π/3⌉ and produce a
// valid coloring, though it need not achieve the optimum ⌈5h/2⌉.
func TestTheorem6GadgetReplicated(t *testing.T) {
	g, fam, err := gen.InternalCycleGadget(2)
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= 6; h++ {
		rep := fam.Replicate(h)
		res := requireTheorem6(t, g, rep)
		if res.Pi != 2*h {
			t.Fatalf("h=%d: π = %d", h, res.Pi)
		}
		opt := (5*h + 1) / 2
		if res.NumColors < opt {
			t.Fatalf("h=%d: NumColors = %d below the proven optimum %d", h, res.NumColors, opt)
		}
	}
}

func TestTheorem6FallsBackToTheorem1(t *testing.T) {
	// No internal cycle: ColorOneInternalCycleUPP should delegate and give
	// exactly π colors.
	g := gen.RandomArborescence(20, 5)
	fam := gen.RandomWalkFamily(g, 25, 6, 6)
	res := requireTheorem6(t, g, fam)
	pi := load.Pi(g, fam)
	if pi > 0 && res.NumColors != pi {
		t.Fatalf("delegation lost optimality: %d colors for π=%d", res.NumColors, pi)
	}
}

func TestTheorem6RejectsNonUPP(t *testing.T) {
	// Fig3's graph has one internal cycle but is not UPP (two b->d routes).
	g, fam := gen.Fig3()
	_, err := ColorOneInternalCycleUPP(g, fam)
	if !errors.Is(err, ErrNotUPP) {
		t.Fatalf("err = %v, want ErrNotUPP", err)
	}
}

func TestTheorem6RejectsMultipleCycles(t *testing.T) {
	g1, f1 := gen.Havet()
	g2, f2 := gen.Havet()
	g, f := gen.DisjointUnion(gen.Instance{G: g1, F: f1}, gen.Instance{G: g2, F: f2})
	if _, err := ColorOneInternalCycleUPP(g, f); err == nil {
		t.Fatal("two internal cycles accepted")
	}
}

func TestTheorem6RejectsCyclicDigraph(t *testing.T) {
	g := digraph.New(2)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 0)
	if _, err := ColorOneInternalCycleUPP(g, nil); err == nil {
		t.Fatal("cyclic digraph accepted")
	}
}

func TestTheorem6EmptyFamily(t *testing.T) {
	g, _ := gen.Havet()
	res, err := ColorOneInternalCycleUPP(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pi != 0 || res.NumColors > 1 {
		t.Fatalf("res = %+v", res)
	}
}

// Mixed workloads on the Havet graph: all-pairs routed demands plus the
// tight family, exercising padding (load(a,b) < π) and nontrivial
// permutation structure.
func TestTheorem6MixedWorkloads(t *testing.T) {
	g, fam := gen.Havet()
	all, err := gen.AllSourceSinkFamily(g)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(fam.Clone(), all...)
	requireTheorem6(t, g, mixed)

	// Uneven replication: three copies of one dipath, one of the others.
	uneven := fam.Clone()
	uneven = append(uneven, fam[0], fam[0], fam[3])
	requireTheorem6(t, g, uneven)
}

func TestTheorem6GadgetWorkloads(t *testing.T) {
	for k := 2; k <= 5; k++ {
		g, _, err := gen.InternalCycleGadget(k)
		if err != nil {
			t.Fatal(err)
		}
		all, err := gen.AllSourceSinkFamily(g)
		if err != nil {
			t.Fatal(err)
		}
		requireTheorem6(t, g, all)
		requireTheorem6(t, g, all.Replicate(3))
	}
}

// Cross-validate against the exact chromatic number on small instances:
// theorem6's coloring can use more than χ but never more than ⌈4π/3⌉,
// and never fewer than χ.
func TestTheorem6VsExact(t *testing.T) {
	g, fam := gen.Havet()
	workloads := []dipath.Family{
		fam,
		fam.Replicate(2),
		append(fam.Clone(), fam[0], fam[2]),
	}
	for i, w := range workloads {
		res := requireTheorem6(t, g, w)
		cg := conflict.FromFamily(g, w)
		chi := cg.ChromaticNumber()
		if res.NumColors < chi {
			t.Fatalf("workload %d: impossible coloring with %d < χ = %d", i, res.NumColors, chi)
		}
	}
}

func TestColorDAGDispatch(t *testing.T) {
	// Theorem 1 branch.
	g1, err := gen.RandomNoInternalCycleDAG(10, 2, 2, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f1 := gen.RandomWalkFamily(g1, 15, 5, 2)
	res, method, err := ColorDAG(g1, f1)
	if err != nil || method != MethodTheorem1 {
		t.Fatalf("method = %s, err = %v", method, err)
	}
	if err := Verify(g1, f1, res); err != nil {
		t.Fatal(err)
	}

	// Theorem 6 branch.
	g2, f2 := gen.Havet()
	res, method, err = ColorDAG(g2, f2)
	if err != nil || method != MethodTheorem6 {
		t.Fatalf("method = %s, err = %v", method, err)
	}
	if err := Verify(g2, f2, res); err != nil {
		t.Fatal(err)
	}

	// DSATUR fallback: one internal cycle but not UPP.
	g3, f3 := gen.Fig3()
	res, method, err = ColorDAG(g3, f3)
	if err != nil || method != MethodDSATUR {
		t.Fatalf("method = %s, err = %v", method, err)
	}
	if err := Verify(g3, f3, res); err != nil {
		t.Fatal(err)
	}

	// Invalid family propagates an error.
	other := digraph.New(2)
	other.MustAddArc(0, 1)
	bad := dipath.Family{dipath.MustFromVertices(other, 0, 1)}
	if _, _, err := ColorDAG(digraph.New(2), bad); err == nil {
		t.Fatal("invalid family accepted")
	}
}

// TestColorDAGDeterministic repeats ColorDAG on random subsets of the
// doubled Theorem 2 gadget (one internal cycle, so Theorem 6 runs) and
// requires the same coloring every time: the cycle decomposition of the
// re-merge must not depend on map iteration order.
func TestColorDAGDeterministic(t *testing.T) {
	g, base, err := gen.InternalCycleGadget(3)
	if err != nil {
		t.Fatal(err)
	}
	fam := base.Replicate(2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		perm := rng.Perm(len(fam))[:12]
		sub := make(dipath.Family, len(perm))
		for i, j := range perm {
			sub[i] = fam[j]
		}
		first, method, err := ColorDAG(g, sub)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if method != MethodTheorem6 {
			t.Fatalf("trial %d: method %s, want %s", trial, method, MethodTheorem6)
		}
		for rep := 1; rep < 8; rep++ {
			res, _, err := ColorDAG(g, sub)
			if err != nil {
				t.Fatalf("trial %d rep %d: %v", trial, rep, err)
			}
			if !slices.Equal(res.Colors, first.Colors) {
				t.Fatalf("trial %d rep %d: colors %v, first call gave %v", trial, rep, res.Colors, first.Colors)
			}
		}
	}
}
