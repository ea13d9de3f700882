package groom

// Randomized cross-checks between the max-request solvers: Greedy must
// always be Feasible, Exact must dominate Greedy and agree with the
// polynomial MaxOnPath on path graphs, and the online selection (a
// budgeted session) must stay Feasible, below Exact, and must never
// reject an offer the Theorem-1 test admits. These are the oracles
// groom.Online is pinned to.

import (
	"math/rand"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/wdm"
)

const exactNodeCap = 4_000_000

// randomInstance draws a Theorem-1 (internal-cycle-free) topology and a
// small walk family — small enough for Exact to complete.
func randomInstance(t *testing.T, seed int64, paths int) (*digraph.Digraph, dipath.Family) {
	t.Helper()
	g, err := gen.RandomNoInternalCycleDAG(12, 3, 3, 0.3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, gen.RandomWalkFamily(g, paths, 6, seed+1)
}

func allIndices(n int) []int {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

func TestGreedyAlwaysFeasible(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, fam := randomInstance(t, 100+seed, 30)
		for _, w := range []int{1, 2, 3, 5} {
			sel := Greedy(g, fam, w)
			ok, err := Feasible(g, fam, sel, w)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("seed %d w %d: Greedy selection infeasible", seed, w)
			}
		}
	}
}

func TestGreedyAtMostExact(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, fam := randomInstance(t, 200+seed, 14)
		for _, w := range []int{1, 2, 3} {
			greedy := Greedy(g, fam, w)
			exact, complete := Exact(g, fam, w, exactNodeCap)
			if !complete {
				t.Fatalf("seed %d w %d: Exact hit the node cap on a 14-path instance", seed, w)
			}
			if ok, err := Feasible(g, fam, exact, w); err != nil || !ok {
				t.Fatalf("seed %d w %d: Exact selection infeasible (%v)", seed, w, err)
			}
			if len(greedy) > len(exact) {
				t.Fatalf("seed %d w %d: |Greedy|=%d > |Exact|=%d", seed, w, len(greedy), len(exact))
			}
		}
	}
}

// randomIntervals draws an interval family over the directed path graph
// on n vertices.
func randomIntervals(g *digraph.Digraph, n, count int, rng *rand.Rand) dipath.Family {
	fam := make(dipath.Family, 0, count)
	for i := 0; i < count; i++ {
		lo := rng.Intn(n - 1)
		hi := lo + 1 + rng.Intn(n-lo-1)
		verts := make([]digraph.Vertex, 0, hi-lo+1)
		for v := lo; v <= hi; v++ {
			verts = append(verts, digraph.Vertex(v))
		}
		fam = append(fam, dipath.MustFromVertices(g, verts...))
	}
	return fam
}

func TestExactMatchesMaxOnPath(t *testing.T) {
	const n = 10
	g := pathGraph(n)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		fam := randomIntervals(g, n, 12, rng)
		for _, w := range []int{1, 2, 3} {
			exact, complete := Exact(g, fam, w, exactNodeCap)
			if !complete {
				t.Fatalf("seed %d w %d: Exact hit the node cap", seed, w)
			}
			onPath, err := MaxOnPath(g, fam, w)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := Feasible(g, fam, onPath, w); err != nil || !ok {
				t.Fatalf("seed %d w %d: MaxOnPath selection infeasible (%v)", seed, w, err)
			}
			if len(exact) != len(onPath) {
				t.Fatalf("seed %d w %d: |Exact|=%d but |MaxOnPath|=%d", seed, w, len(exact), len(onPath))
			}
		}
	}
}

func TestOnlineFeasibleAndBelowExact(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, fam := randomInstance(t, 400+seed, 14)
		for _, w := range []int{1, 2, 3} {
			sel, err := OnlineMax(g, fam, w)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := Feasible(g, fam, sel, w); err != nil || !ok {
				t.Fatalf("seed %d w %d: online accepted set infeasible (%v)", seed, w, err)
			}
			exact, complete := Exact(g, fam, w, exactNodeCap)
			if complete && len(sel) > len(exact) {
				t.Fatalf("seed %d w %d: |Online|=%d > |Exact|=%d", seed, w, len(sel), len(exact))
			}
		}
	}
}

// TestOnlineNeverRejectsTheorem1Admissible replays every offer against
// a shadow load tracker: whenever the Theorem-1 test (load+1 ≤ w on
// every arc of the offer) admits at offer time, the online session must
// have accepted — the acceptance criterion that the precheck is exact,
// not merely sound.
func TestOnlineNeverRejectsTheorem1Admissible(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g, fam := randomInstance(t, 500+seed, 40)
		for _, w := range []int{1, 2, 4} {
			o, err := NewOnline(g, w)
			if err != nil {
				t.Fatal(err)
			}
			shadow := load.NewTracker(g)
			for i, p := range fam {
				admissible := shadow.FitsAdditional(p, w)
				ok, err := o.Offer(p)
				if err != nil {
					t.Fatal(err)
				}
				if admissible && !ok {
					t.Fatalf("seed %d w %d: offer %d admissible by Theorem 1 but rejected", seed, w, i)
				}
				if !admissible && ok {
					t.Fatalf("seed %d w %d: offer %d accepted past the load budget", seed, w, i)
				}
				if ok {
					shadow.Add(p)
				}
			}
			if o.Offers() != len(fam) || o.Len() != len(o.Accepted()) {
				t.Fatalf("seed %d w %d: offer bookkeeping inconsistent", seed, w)
			}
			// The session behind the selection must be coherent: a proper
			// assignment within the budget.
			if err := o.Session().Verify(); err != nil {
				t.Fatalf("seed %d w %d: %v", seed, w, err)
			}
			if n, err := o.Session().NumLambda(); err != nil || n > w {
				t.Fatalf("seed %d w %d: λ=%d past the budget (%v)", seed, w, n, err)
			}
		}
	}
}

// TestOnlineMatchesMaxOnPathOrder checks the path-graph regime: offers
// arriving in MaxOnPath's optimal order (right endpoint ascending) must
// reproduce the optimal cardinality — online admission loses nothing
// when the arrival order happens to be the greedy-optimal one.
func TestOnlineMatchesMaxOnPathOrder(t *testing.T) {
	const n = 10
	g := pathGraph(n)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		fam := randomIntervals(g, n, 12, rng)
		for _, w := range []int{1, 2, 3} {
			opt, err := MaxOnPath(g, fam, w)
			if err != nil {
				t.Fatal(err)
			}
			// Re-offer in right-endpoint order.
			order := allIndices(len(fam))
			for i := range order {
				for j := i + 1; j < len(order); j++ {
					if fam[order[j]].Last() < fam[order[i]].Last() {
						order[i], order[j] = order[j], order[i]
					}
				}
			}
			o, err := NewOnline(g, w)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for _, i := range order {
				ok, err := o.Offer(fam[i])
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					count++
				}
			}
			if count != len(opt) {
				t.Fatalf("seed %d w %d: online in optimal order accepted %d, MaxOnPath %d",
					seed, w, count, len(opt))
			}
		}
	}
}

// TestOnlineRouteSubstitutingStrategy pins the Offer contract under an
// admission strategy that would provision a different route: the
// max-request problem selects the offered dipaths themselves, so a
// retry-alt-route substitution must count as a rejection and the
// accepted set must stay Feasible for the paths as offered.
func TestOnlineRouteSubstitutingStrategy(t *testing.T) {
	g := digraph.New(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 3)
	g.MustAddArc(0, 2)
	g.MustAddArc(2, 3)
	o, err := NewOnline(g, 1, wdm.WithAdmissionStrategy(wdm.AdmissionRetryAltRoute))
	if err != nil {
		t.Fatal(err)
	}
	p := dipath.MustFromVertices(g, 0, 1, 3)
	if ok, err := o.Offer(p); err != nil || !ok {
		t.Fatalf("first offer: %v %v", ok, err)
	}
	// The same dipath again is over budget; the strategy would commit
	// the 0->2->3 detour, which is not the offered path — Offer must
	// report rejection and leave the session holding only the original.
	if ok, err := o.Offer(p); err != nil || ok {
		t.Fatalf("substituted offer counted as accepted: %v %v", ok, err)
	}
	if o.Len() != 1 || o.Session().Len() != 1 {
		t.Fatalf("accepted %d, session holds %d", o.Len(), o.Session().Len())
	}
	fam := dipath.Family{p, p}
	if ok, err := Feasible(g, fam, o.Accepted(), 1); err != nil || !ok {
		t.Fatalf("accepted set infeasible: %v %v", ok, err)
	}
}
