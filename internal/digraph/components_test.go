package digraph

import (
	"math/rand"
	"slices"
	"testing"
)

// buildMultiComponent returns a digraph with several known components:
// a 3-path, an isolated vertex, and a diamond.
func buildMultiComponent(t *testing.T) *Digraph {
	t.Helper()
	g := New(9)
	// Component of {0,1,2}: 0->1->2.
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	// Vertex 3 isolated.
	// Component of {4,5,6,7}: diamond 4->5, 4->6, 5->7, 6->7.
	g.MustAddArc(4, 5)
	g.MustAddArc(4, 6)
	g.MustAddArc(5, 7)
	g.MustAddArc(6, 7)
	// Component of {8} joined to {0,1,2} against arc direction: 8->0.
	g.MustAddArc(8, 0)
	return g
}

func TestComponentLabels(t *testing.T) {
	g := buildMultiComponent(t)
	label := g.ComponentLabels()
	want := []int32{0, 0, 0, 1, 2, 2, 2, 2, 0} // 8 joins component 0 weakly
	for v, l := range label {
		if l != want[v] {
			t.Fatalf("label[%d] = %d, want %d (all %v)", v, l, want[v], label)
		}
	}
	// Failed arcs still connect: cutting every arc leaves the labels of
	// the installed plant unchanged.
	for a := 0; a < g.NumArcs(); a++ {
		if err := g.FailArc(ArcID(a)); err != nil {
			t.Fatal(err)
		}
	}
	if cut := g.ComponentLabels(); !slices.Equal(cut, label) {
		t.Fatalf("labels after cutting every arc %v, want %v", cut, label)
	}
}

func TestPartitionComponents(t *testing.T) {
	g := buildMultiComponent(t)
	views, label, localVertex := g.PartitionComponents()
	if len(views) != 3 {
		t.Fatalf("got %d components, want 3", len(views))
	}
	totalV, totalA := 0, 0
	for c, view := range views {
		totalV += view.G.NumVertices()
		totalA += view.G.NumArcs()
		if len(view.ToGlobalVertex) != view.G.NumVertices() {
			t.Fatalf("component %d: %d vertex translations for %d vertices",
				c, len(view.ToGlobalVertex), view.G.NumVertices())
		}
		if len(view.ToGlobalArc) != view.G.NumArcs() {
			t.Fatalf("component %d: %d arc translations for %d arcs",
				c, len(view.ToGlobalArc), view.G.NumArcs())
		}
		// Round trips: local -> global -> local, and every translated arc
		// joins the translated endpoints.
		for lv, gv := range view.ToGlobalVertex {
			if label[gv] != int32(c) {
				t.Fatalf("component %d holds vertex %d labelled %d", c, gv, label[gv])
			}
			if localVertex[gv] != Vertex(lv) {
				t.Fatalf("localVertex[%d] = %d, want %d", gv, localVertex[gv], lv)
			}
		}
		for la, ga := range view.ToGlobalArc {
			larc, garc := view.G.Arc(ArcID(la)), g.Arc(ga)
			if view.ToGlobalVertex[larc.Tail] != garc.Tail || view.ToGlobalVertex[larc.Head] != garc.Head {
				t.Fatalf("component %d arc %d translates to %d but endpoints differ", c, la, ga)
			}
		}
	}
	if totalV != g.NumVertices() || totalA != g.NumArcs() {
		t.Fatalf("partition covers %d/%d vertices and %d/%d arcs",
			totalV, g.NumVertices(), totalA, g.NumArcs())
	}
}

// TestPartitionPreservesArcOrder pins the order contract: within a
// component, both vertices and adjacency lists keep the parent's
// relative order, so order-sensitive traversals (BFS tie-breaking) are
// equivalent on the view and on the parent.
func TestPartitionPreservesArcOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := New(30)
	for i := 0; i < 60; i++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u // keep it a DAG
		}
		g.MustAddArc(Vertex(u), Vertex(v))
	}
	views, _, localVertex := g.PartitionComponents()
	for _, view := range views {
		for lv := 0; lv < view.G.NumVertices(); lv++ {
			gv := view.ToGlobalVertex[lv]
			out := view.G.OutArcs(Vertex(lv))
			gout := g.OutArcs(gv)
			if len(out) != len(gout) {
				t.Fatalf("vertex %d: %d local out-arcs, %d global", gv, len(out), len(gout))
			}
			for i, la := range out {
				if view.ToGlobalArc[la] != gout[i] {
					t.Fatalf("vertex %d out-arc %d: local order diverges from parent", gv, i)
				}
				if head := view.G.Arc(la).Head; head != localVertex[g.Arc(gout[i]).Head] {
					t.Fatalf("vertex %d out-arc %d: head mismatch", gv, i)
				}
			}
		}
	}
}
