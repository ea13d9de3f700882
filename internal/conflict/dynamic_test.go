package conflict

import (
	"math/rand"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/load"
)

// incidenceGraph compacts the live slots into a static Graph (vertex i
// is slots[i]) whose edges are read off the arc incidence alone: two
// slots conflict when some arc lists both.
func incidenceGraph(d *Dynamic) (*Graph, []int) {
	slots := d.LiveSlots()
	pos := make([]int, d.NumSlots())
	for i, s := range slots {
		pos[s] = i
	}
	cg := NewGraph(len(slots))
	for a := 0; a < d.Graph().NumArcs(); a++ {
		var on []int
		d.ForEachOnArc(digraph.ArcID(a), func(s int) { on = append(on, pos[s]) })
		for i := range on {
			for j := i + 1; j < len(on); j++ {
				cg.AddEdge(on[i], on[j]) // re-inserting an edge is a no-op
			}
		}
	}
	return cg, slots
}

// TestDynamicMatchesFromFamily drives a Dynamic through random
// insertions and removals and checks after every operation that the
// conflict graph its arc incidence implies is exactly the static
// conflict graph of the live family, and that the incremental lower
// bound equals the true load π.
func TestDynamicMatchesFromFamily(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(18, 4, 4, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.RandomWalkFamily(g, 60, 6, 99)
	rng := rand.New(rand.NewSource(42))

	d := NewDynamic(g)
	type liveEntry struct {
		slot int
		fam  int // index into pool
	}
	var liveSet []liveEntry

	check := func(opNum int) {
		t.Helper()
		snap, slots := incidenceGraph(d)
		if len(slots) != d.NumLive() || d.NumLive() != len(liveSet) {
			t.Fatalf("op %d: live bookkeeping mismatch: %d slots, %d live, %d entries",
				opNum, len(slots), d.NumLive(), len(liveSet))
		}
		// Build the family in increasing slot order (incidenceGraph's order).
		fam := d.Family()
		want := FromFamily(g, fam)
		if snap.N() != want.N() {
			t.Fatalf("op %d: snapshot has %d vertices, want %d", opNum, snap.N(), want.N())
		}
		for u := 0; u < want.N(); u++ {
			if snap.Degree(u) != want.Degree(u) {
				t.Fatalf("op %d: degree(%d) = %d, want %d", opNum, u, snap.Degree(u), want.Degree(u))
			}
			for v := u + 1; v < want.N(); v++ {
				if snap.HasEdge(u, v) != want.HasEdge(u, v) {
					t.Fatalf("op %d: edge (%d,%d) = %v, want %v",
						opNum, u, v, snap.HasEdge(u, v), want.HasEdge(u, v))
				}
			}
		}
		if lb, pi := d.LowerBound(), load.Pi(g, fam); lb != pi {
			t.Fatalf("op %d: lower bound %d, want π = %d", opNum, lb, pi)
		}
	}

	for op := 0; op < 400; op++ {
		if len(liveSet) == 0 || (rng.Intn(3) != 0 && len(liveSet) < 40) {
			fi := rng.Intn(len(pool))
			slot, err := d.AddPath(pool[fi])
			if err != nil {
				t.Fatalf("op %d: AddPath: %v", op, err)
			}
			liveSet = append(liveSet, liveEntry{slot, fi})
		} else {
			k := rng.Intn(len(liveSet))
			if err := d.RemovePath(liveSet[k].slot); err != nil {
				t.Fatalf("op %d: RemovePath: %v", op, err)
			}
			liveSet[k] = liveSet[len(liveSet)-1]
			liveSet = liveSet[:len(liveSet)-1]
		}
		if op%7 == 0 || op > 380 {
			check(op)
		}
	}
	check(400)
}

// TestDynamicSlotRecycling checks slots are reused and stale incidence
// never leaks into a recycled slot.
func TestDynamicSlotRecycling(t *testing.T) {
	g, fam, err := gen.Fig1Staircase(6)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(g)
	s0, err := d.AddPath(fam[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPath(fam[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.RemovePath(s0); err != nil {
		t.Fatal(err)
	}
	s2, err := d.AddPath(fam[2])
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s0 {
		t.Fatalf("slot not recycled: got %d, want %d", s2, s0)
	}
	// fam[2] of the staircase conflicts with fam[1]; the recycled slot's
	// conflicts must be exactly that, nothing stale.
	cg, slots := incidenceGraph(d)
	if len(slots) != 2 || slots[0] != s2 || cg.Degree(0) != 1 {
		t.Fatalf("recycled slot: live %v, degree %d, want [%d ...] with degree 1", slots, cg.Degree(0), s2)
	}
	if err := d.RemovePath(s2); err != nil {
		t.Fatal(err)
	}
	if err := d.RemovePath(s2); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, err := d.AddPath(nil); err == nil {
		t.Fatal("nil path accepted")
	}
}

// TestDynamicGrowth grows the slot space to 240 live dipaths.
func TestDynamicGrowth(t *testing.T) {
	g, fam, err := gen.Fig1Staircase(12)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(g)
	// The staircase conflict graph is complete: after inserting k copies
	// of the family every pair of slots sharing the ladder arc conflicts.
	total := 0
	for rep := 0; rep < 20; rep++ {
		for _, p := range fam {
			if _, err := d.AddPath(p); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	if d.NumLive() != total || d.NumSlots() != total {
		t.Fatalf("live = %d, slots = %d, want %d", d.NumLive(), d.NumSlots(), total)
	}
	snap, _ := incidenceGraph(d)
	want := FromFamily(g, d.Family())
	if snap.NumEdges() != want.NumEdges() {
		t.Fatalf("edges = %d, want %d", snap.NumEdges(), want.NumEdges())
	}
	if lb := d.LowerBound(); lb != load.Pi(g, d.Family()) {
		t.Fatalf("lower bound %d, want %d", lb, load.Pi(g, d.Family()))
	}
}
