package digraph

// Fiber-cut primitive tests: FailArc/RestoreArc bookkeeping, the
// topology epoch, and Clone carrying failure state.

import "testing"

func TestFailRestoreArc(t *testing.T) {
	g := New(3)
	a0 := g.MustAddArc(0, 1)
	a1 := g.MustAddArc(1, 2)
	if g.NumFailedArcs() != 0 || g.ArcFailed(a0) {
		t.Fatalf("fresh graph reports failures")
	}
	if err := g.FailArc(a0); err != nil {
		t.Fatal(err)
	}
	if !g.ArcFailed(a0) || g.ArcFailed(a1) || g.NumFailedArcs() != 1 {
		t.Fatalf("failure state wrong after one cut")
	}
	// Double cut, unknown arc, and restore of an intact arc are errors.
	if err := g.FailArc(a0); err == nil {
		t.Fatal("double cut accepted")
	}
	if err := g.FailArc(ArcID(99)); err == nil {
		t.Fatal("unknown arc cut accepted")
	}
	if err := g.RestoreArc(a1); err == nil {
		t.Fatal("restore of intact arc accepted")
	}
	if err := g.RestoreArc(ArcID(-1)); err == nil {
		t.Fatal("negative arc restore accepted")
	}
	if err := g.RestoreArc(a0); err != nil {
		t.Fatal(err)
	}
	if g.ArcFailed(a0) || g.NumFailedArcs() != 0 {
		t.Fatalf("failure state wrong after repair")
	}
	// Identifiers, endpoints and adjacency positions survive a cut.
	if err := g.FailArc(a1); err != nil {
		t.Fatal(err)
	}
	if arc := g.Arc(a1); arc.Tail != 1 || arc.Head != 2 {
		t.Fatalf("cut arc lost endpoints: %d->%d", arc.Tail, arc.Head)
	}
	if g.NumArcs() != 2 {
		t.Fatalf("cut changed arc count: %d", g.NumArcs())
	}
}

func TestTopologyEpoch(t *testing.T) {
	g := New(3)
	e0 := g.TopologyEpoch()
	a := g.MustAddArc(0, 1)
	if g.TopologyEpoch() == e0 {
		t.Fatal("AddArc did not bump the epoch")
	}
	e1 := g.TopologyEpoch()
	if err := g.FailArc(a); err != nil {
		t.Fatal(err)
	}
	if g.TopologyEpoch() == e1 {
		t.Fatal("FailArc did not bump the epoch")
	}
	e2 := g.TopologyEpoch()
	if err := g.RestoreArc(a); err != nil {
		t.Fatal(err)
	}
	if g.TopologyEpoch() == e2 {
		t.Fatal("RestoreArc did not bump the epoch")
	}
}

func TestCloneCarriesFailures(t *testing.T) {
	g := New(3)
	a0 := g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	if err := g.FailArc(a0); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if !c.ArcFailed(a0) || c.NumFailedArcs() != 1 {
		t.Fatal("clone dropped failure state")
	}
	if c.TopologyEpoch() != g.TopologyEpoch() {
		t.Fatal("clone dropped the epoch")
	}
	// Clones diverge independently.
	if err := c.RestoreArc(a0); err != nil {
		t.Fatal(err)
	}
	if !g.ArcFailed(a0) || c.ArcFailed(a0) {
		t.Fatal("clone shares failure state with the original")
	}
}
