package core

import (
	"fmt"
	"math/rand"
	"testing"

	"wavedag/internal/conflict"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// denseVerify is Verify as it was before the per-arc masks: the length
// checks, then the conflict graph's dense check.
func denseVerify(g *digraph.Digraph, fam dipath.Family, res *Result) error {
	if res == nil {
		return fmt.Errorf("core: nil result")
	}
	if len(res.Colors) != len(fam) {
		return fmt.Errorf("core: %d colors for %d dipaths", len(res.Colors), len(fam))
	}
	return conflict.FromFamily(g, fam).ValidateColoring(res.Colors)
}

// verifyOutcome runs a verifier and returns its error text, or the
// value it panicked with.
func verifyOutcome(verify func(*digraph.Digraph, dipath.Family, *Result) error, g *digraph.Digraph, fam dipath.Family, res *Result) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprint("panic: ", r)
		}
	}()
	return fmt.Sprint(verify(g, fam, res))
}

func requireVerifyMatchesDense(t *testing.T, name string, g *digraph.Digraph, fam dipath.Family, res *Result) {
	t.Helper()
	got := verifyOutcome(Verify, g, fam, res)
	want := verifyOutcome(denseVerify, g, fam, res)
	if got != want {
		t.Fatalf("%s: Verify %q, dense check %q", name, got, want)
	}
}

// TestVerifyMatchesDenseCheck compares Verify with the dense conflict
// graph check on random instances: proper colorings, improper ones made
// by one swap onto a conflicting dipath's color, uncolored entries,
// colors beyond the masks' size bound, short results, and a dipath that
// repeats an arc (the dense check panics on it; Verify must too).
func TestVerifyMatchesDenseCheck(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *digraph.Digraph
		if seed%2 == 0 {
			var err error
			g, err = gen.RandomNoInternalCycleDAG(8+int(seed), 3, 3, 0.3, seed)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			g = gen.RandomDAG(12+int(seed), 30+2*int(seed), seed)
		}
		fam := gen.RandomWalkFamily(g, 20+rng.Intn(80), 1+rng.Intn(6), seed)
		res, _, err := ColorDAG(g, fam)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed=%d", seed)
		requireVerifyMatchesDense(t, name+"/proper", g, fam, res)
		colors := func() []int { return append([]int(nil), res.Colors...) }

		// One swap: a dipath takes the color of one it shares an arc with.
		inc := dipath.ArcIncidence(g, fam)
		for a := 0; a < inc.NumArcs(); a++ {
			if on := inc.On(digraph.ArcID(a)); len(on) >= 2 {
				bad := colors()
				i, j := on[rng.Intn(len(on))], on[rng.Intn(len(on))]
				if i == j {
					continue
				}
				bad[j] = bad[i]
				requireVerifyMatchesDense(t, name+"/swap", g, fam, &Result{Colors: bad})
				break
			}
		}
		uncolored := colors()
		uncolored[rng.Intn(len(uncolored))] = -1 - rng.Intn(3)
		requireVerifyMatchesDense(t, name+"/uncolored", g, fam, &Result{Colors: uncolored})
		huge := colors()
		huge[rng.Intn(len(huge))] = 1 << 40
		requireVerifyMatchesDense(t, name+"/huge", g, fam, &Result{Colors: huge})
		requireVerifyMatchesDense(t, name+"/short", g, fam, &Result{Colors: res.Colors[:len(fam)-1]})
		requireVerifyMatchesDense(t, name+"/nil", g, fam, nil)
	}
	// A closed walk over a 2-cycle traverses arc 0 twice.
	g := digraph.New(2)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 0)
	fam := dipath.Family{dipath.FromArcsTrusted(g, 0, 1, 0), dipath.MustFromVertices(g, 1, 0)}
	requireVerifyMatchesDense(t, "repeated-arc", g, fam, &Result{Colors: []int{0, 1}})
	requireVerifyMatchesDense(t, "empty", g, nil, &Result{})
}

// BenchmarkVerify verifies a Theorem-1 coloring of 1000 and 5000
// min-load routed requests on the plan-theorem1 topology.
func BenchmarkVerify(b *testing.B) {
	g, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
	if err != nil {
		b.Fatal(err)
	}
	pool := route.NewRouter(g).AllToAll()
	rng := rand.New(rand.NewSource(1))
	for _, paths := range []int{1000, 5000} {
		reqs := make([]route.Request, paths)
		for i := range reqs {
			reqs[i] = pool[rng.Intn(len(pool))]
		}
		fam, err := route.NewRouter(g).MinLoadSequential(reqs)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ColorNoInternalCycle(g, fam)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("paths=%d", paths), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Verify(g, fam, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
