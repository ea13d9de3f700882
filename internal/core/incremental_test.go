package core

import (
	"math/rand"
	"slices"
	"testing"

	"wavedag/internal/conflict"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

// checkIncrementalInvariants snapshots the colorer's state and asserts
// the Incremental invariants: proper coloring, exact distinct count,
// the lower bound, and per-arc wavelength masks that equal the OR of
// 1<<color over the arc's live slots.
func checkIncrementalInvariants(t *testing.T, op int, ic *Incremental) {
	t.Helper()
	g, slots, fam := ic.Dynamic().Graph(), ic.Dynamic().LiveSlots(), ic.Dynamic().Family()
	colors := ic.Colors(slots)
	if err := conflict.FromFamily(g, fam).ValidateColoring(colors); err != nil {
		t.Fatalf("op %d: coloring invalid: %v", op, err)
	}
	distinct := make(map[int]bool)
	for _, c := range colors {
		distinct[c] = true
		// The palette is kept dense (compactPalette), so every live
		// wavelength index is below the reported count — a Feasible
		// check against a channel budget can trust NumLambda.
		if c >= ic.NumLambda() {
			t.Fatalf("op %d: wavelength index %d >= NumLambda %d (palette not dense)",
				op, c, ic.NumLambda())
		}
	}
	if len(distinct) != ic.NumLambda() {
		t.Fatalf("op %d: NumLambda = %d, want %d", op, ic.NumLambda(), len(distinct))
	}
	if lb, pi := ic.LowerBound(), load.Pi(g, fam); lb != pi {
		t.Fatalf("op %d: lower bound %d, want π = %d", op, lb, pi)
	}
	if arcs := g.NumArcs(); len(ic.occ) != arcs*ic.words {
		t.Fatalf("op %d: %d mask words for %d arcs × %d words", op, len(ic.occ), arcs, ic.words)
	}
	want := make([]uint64, ic.words)
	for a := 0; a < g.NumArcs(); a++ {
		clear(want)
		ic.Dynamic().ForEachOnArc(digraph.ArcID(a), func(s int) {
			c := ic.colors[s]
			want[c/64] |= 1 << (c % 64)
		})
		if got := ic.occ[a*ic.words : (a+1)*ic.words]; !slices.Equal(got, want) {
			t.Fatalf("op %d: arc %d mask %x, want %x", op, a, got, want)
		}
	}
}

// TestIncrementalChurn drives the colorer through random add/remove ops
// on a Theorem 1 topology, where the full pipeline achieves w = π, so
// NumLambda must stay within lb+slack after every operation.
func TestIncrementalChurn(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(20, 4, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.RandomWalkFamily(g, 80, 7, 31)
	rng := rand.New(rand.NewSource(9))
	const slack = 2
	ic := NewIncremental(g, slack)

	var live []int
	for op := 0; op < 600; op++ {
		if len(live) == 0 || (rng.Intn(3) != 0 && len(live) < 50) {
			s, err := ic.Add(pool[rng.Intn(len(pool))])
			if err != nil {
				t.Fatalf("op %d: Add: %v", op, err)
			}
			live = append(live, s)
		} else {
			k := rng.Intn(len(live))
			if err := ic.Remove(live[k]); err != nil {
				t.Fatalf("op %d: Remove: %v", op, err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		checkIncrementalInvariants(t, op, ic)
		// Theorem 1 applies to this DAG, so a full recolor always reaches
		// the lower bound and the slack gate is a hard invariant.
		if ic.NumLambda() > ic.LowerBound()+slack {
			t.Fatalf("op %d: λ = %d drifted past lb %d + slack %d",
				op, ic.NumLambda(), ic.LowerBound(), slack)
		}
	}
	if ic.FullRecolors() == 0 {
		t.Log("churn never triggered a full recolor (slack never exceeded)")
	}
}

// TestIncrementalHardInstance runs churn on the Figure 1 staircase,
// where χ greatly exceeds π: the colorer must stay proper and the
// futile-recolor suppression must prevent a full recolor per operation.
func TestIncrementalHardInstance(t *testing.T) {
	g, fam, err := gen.Fig1Staircase(10)
	if err != nil {
		t.Fatal(err)
	}
	ic := NewIncremental(g, 1)
	var live []int
	for rep := 0; rep < 3; rep++ {
		for _, p := range fam {
			s, err := ic.Add(p)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, s)
		}
	}
	checkIncrementalInvariants(t, len(live), ic)
	// The staircase conflict graph (one copy) is complete on 10 vertices
	// with π = 2: λ must reach χ = 10 even though lb+slack is 3·2+1.
	if ic.NumLambda() < 10 {
		t.Fatalf("λ = %d below χ of the replicated staircase", ic.NumLambda())
	}
	recolorsAfterFill := ic.FullRecolors()
	// Steady-state adds/removes must not thrash full recolors: the
	// suppression records the pipeline's own answer as the ceiling.
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 60; op++ {
		k := rng.Intn(len(live))
		if err := ic.Remove(live[k]); err != nil {
			t.Fatal(err)
		}
		s, err := ic.Add(fam[rng.Intn(len(fam))])
		if err != nil {
			t.Fatal(err)
		}
		live[k] = s
		checkIncrementalInvariants(t, op, ic)
	}
	if thrash := ic.FullRecolors() - recolorsAfterFill; thrash > 20 {
		t.Fatalf("futile-recolor suppression failed: %d full recolors in 60 steady-state ops", thrash)
	}
}

// warmChurn drives ic through count random add/remove ops with shortest
// routes over g's reachable pairs, checking the colorer invariants every
// checkEvery ops.
func warmChurn(t *testing.T, ic *Incremental, r *route.Router, count, liveCap, checkEvery int, seed int64) {
	t.Helper()
	pool := r.AllToAll()
	rng := rand.New(rand.NewSource(seed))
	var live []int
	for op := 0; op < count; op++ {
		if len(live) == 0 || (rng.Intn(3) != 0 && len(live) < liveCap) {
			req := pool[rng.Intn(len(pool))]
			p, err := r.ShortestPath(req.Src, req.Dst)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ic.Add(p)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, s)
		} else {
			k := rng.Intn(len(live))
			if err := ic.Remove(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op%checkEvery == 0 {
			checkIncrementalInvariants(t, op, ic)
		}
	}
	checkIncrementalInvariants(t, count, ic)
}

// TestIncrementalWarmRecolor pins the warm-start repack. On a drifting
// Theorem 1 churn trace nearly every slack-gate crossing must be
// absorbed by the repack (cold pipeline runs strictly rarer than warm
// passes); on a χ>π trace (shortest routes over the Figure 1 staircase
// topology) the warm pass must engage and still leave every invariant
// the cold path guaranteed — properness, dense palette, exact count —
// intact after each operation.
func TestIncrementalWarmRecolor(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(20, 4, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ic := NewIncremental(g, 1)
	warmChurn(t, ic, route.NewRouter(g), 4000, 80, 50, 9)
	if ic.WarmRecolors() == 0 {
		t.Fatal("drift churn never exercised the warm repack")
	}
	if ic.FullRecolors() >= ic.WarmRecolors() {
		t.Fatalf("warm start absorbed nothing on a Theorem 1 trace: %d cold vs %d warm",
			ic.FullRecolors(), ic.WarmRecolors())
	}

	sg, _, err := gen.Fig1Staircase(10)
	if err != nil {
		t.Fatal(err)
	}
	sic := NewIncremental(sg, 1)
	warmChurn(t, sic, route.NewRouter(sg), 4000, 60, 25, 3)
	if sic.WarmRecolors() == 0 {
		t.Fatal("χ>π churn never exercised the warm repack")
	}
	// WarmRecolors counts only absorbed drifts (no cold run), so strict
	// dominance means the repack genuinely replaced cold pipeline runs.
	if sic.FullRecolors() >= sic.WarmRecolors() {
		t.Fatalf("warm start absorbed nothing on the χ>π trace: %d cold vs %d warm",
			sic.FullRecolors(), sic.WarmRecolors())
	}
}

// TestIncrementalSingleVertexPaths exercises zero-arc paths, which
// conflict with nothing and must still receive a wavelength.
func TestIncrementalSingleVertexPaths(t *testing.T) {
	g, _, err := gen.Fig1Staircase(4)
	if err != nil {
		t.Fatal(err)
	}
	ic := NewIncremental(g, 0)
	p := dipath.MustFromVertices(g, 0)
	s1, err := ic.Add(p)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ic.Add(p)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Wavelength(s1) != 0 || ic.Wavelength(s2) != 0 {
		t.Fatalf("single-vertex paths should share wavelength 0: %d, %d",
			ic.Wavelength(s1), ic.Wavelength(s2))
	}
	if ic.NumLambda() != 1 {
		t.Fatalf("λ = %d, want 1", ic.NumLambda())
	}
	if err := ic.Remove(s1); err != nil {
		t.Fatal(err)
	}
	if err := ic.Remove(s1); err == nil {
		t.Fatal("double remove accepted")
	}
	if ic.NumLambda() != 1 {
		t.Fatalf("λ = %d after removal, want 1", ic.NumLambda())
	}
}

// TestIncrementalTheorem6Recolor churns on the replicated Havet
// instance (one-internal-cycle UPP-DAG), so slack-gated full recolors
// go through the Theorem 6 construction — whose colorings can skip
// palette indices — and checks the engine re-densifies them (the
// invariant helper asserts every live index < NumLambda).
func TestIncrementalTheorem6Recolor(t *testing.T) {
	g, fam := gen.Havet()
	rep := fam.Replicate(4)
	ic := NewIncremental(g, 1)
	var live []int
	for _, p := range rep {
		s, err := ic.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, s)
	}
	checkIncrementalInvariants(t, len(live), ic)
	rng := rand.New(rand.NewSource(8))
	for op := 0; op < 120; op++ {
		k := rng.Intn(len(live))
		if err := ic.Remove(live[k]); err != nil {
			t.Fatal(err)
		}
		s, err := ic.Add(rep[rng.Intn(len(rep))])
		if err != nil {
			t.Fatal(err)
		}
		live[k] = s
		checkIncrementalInvariants(t, op, ic)
	}
	if ic.FullRecolors() == 0 {
		t.Log("churn never left the slack gate (no Theorem 6 recolor exercised)")
	}
}

// TestIncrementalAddUnderLimit drives the budget admission probe
// through random offers at a tight limit: every accepted path must be
// colored below the limit, every rejection must leave the live family —
// and the λ ≤ limit invariant — exactly as before, and the invariants
// of the colorer must hold throughout.
func TestIncrementalAddUnderLimit(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(20, 4, 4, 0.3, 61)
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.RandomWalkFamily(g, 80, 7, 62)
	rng := rand.New(rand.NewSource(63))
	for _, limit := range []int{1, 2, 4} {
		ic := NewIncremental(g, 2)
		var live []int
		accepted, rejected := 0, 0
		for op := 0; op < 400; op++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				p := pool[rng.Intn(len(pool))]
				before := ic.Dynamic().NumLive()
				s, ok, err := ic.AddUnderLimit(p, limit)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					if c := ic.Wavelength(s); c < 0 || c >= limit {
						t.Fatalf("limit %d: accepted path colored %d", limit, c)
					}
					live = append(live, s)
					accepted++
				} else {
					if ic.Dynamic().NumLive() != before {
						t.Fatalf("limit %d: rejection changed the live count", limit)
					}
					rejected++
				}
				if ic.NumLambda() > limit {
					t.Fatalf("limit %d: λ = %d after probe", limit, ic.NumLambda())
				}
			} else {
				i := rng.Intn(len(live))
				if err := ic.Remove(live[i]); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				// Removal repair may recolor; re-enforce the budget the way
				// the budgeted session does.
				if ic.EnsureAtMost(limit) > limit {
					t.Fatalf("limit %d: EnsureAtMost failed on a Theorem-1 topology", limit)
				}
			}
			checkIncrementalInvariants(t, op, ic)
		}
		if accepted == 0 || rejected == 0 {
			t.Fatalf("limit %d: degenerate run (accepted %d, rejected %d)", limit, accepted, rejected)
		}
	}
}

// TestIncrementalEnsureAtMost checks that a drifted assignment is
// brought back under a limit the cold pipeline can certify: on a
// Theorem-1 topology EnsureAtMost(π) must always succeed, and a limit
// below π must fail while leaving the assignment proper.
func TestIncrementalEnsureAtMost(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(18, 3, 3, 0.3, 71)
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.RandomWalkFamily(g, 60, 7, 72)
	ic := NewIncremental(g, 8) // generous slack: let first-fit drift
	for _, p := range pool {
		if _, err := ic.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	pi := ic.LowerBound()
	if got := ic.EnsureAtMost(pi); got != pi {
		t.Fatalf("EnsureAtMost(π=%d) = %d on a Theorem-1 topology", pi, got)
	}
	checkIncrementalInvariants(t, -1, ic)
	if pi > 1 {
		if got := ic.EnsureAtMost(pi - 1); got <= pi-1 {
			t.Fatalf("EnsureAtMost(π-1) = %d, below the load lower bound %d", got, pi)
		}
		checkIncrementalInvariants(t, -2, ic)
	}
}
