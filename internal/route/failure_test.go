package route

// Failure-aware routing tests: every search skips failed arcs, the
// epoch-stamped component snapshot refreshes after cuts and repairs,
// and disconnection reports ErrNoRoute instead of a stale route.

import (
	"errors"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/load"
)

// failDiamond builds s -> {a, b} -> t with the s->a->t branch one hop
// shorter bias-free (both branches are 2 hops, arc order prefers a).
func failDiamond() (*digraph.Digraph, [4]digraph.ArcID) {
	g := digraph.New(4)
	sa := g.MustAddArc(0, 1)
	at := g.MustAddArc(1, 3)
	sb := g.MustAddArc(0, 2)
	bt := g.MustAddArc(2, 3)
	return g, [4]digraph.ArcID{sa, at, sb, bt}
}

func TestShortestPathSkipsFailedArcs(t *testing.T) {
	g, arcs := failDiamond()
	r := NewRouter(g)
	p, err := r.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Arcs()[0] != arcs[0] {
		t.Fatalf("expected the s->a branch first, got %v", p.Arcs())
	}
	if err := g.FailArc(arcs[0]); err != nil {
		t.Fatal(err)
	}
	p, err = r.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p.Arcs() {
		if g.ArcFailed(a) {
			t.Fatalf("route crosses failed arc %d", a)
		}
	}
	// Cut the other branch too: the pair is disconnected, and every
	// attempt is an exhausted search (0 stays an ancestor of 3 over the
	// failed arcs).
	if err := g.FailArc(arcs[2]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var nr ErrNoRoute
		if _, err := r.ShortestPath(0, 3); !errors.As(err, &nr) {
			t.Fatalf("attempt %d: %v, want ErrNoRoute", i, err)
		}
	}
	// A repair makes the pair routable again.
	if err := g.RestoreArc(arcs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ShortestPath(0, 3); err != nil {
		t.Fatalf("post-repair route: %v", err)
	}
}

func TestMinLoadPathSkipsFailedArcs(t *testing.T) {
	g, arcs := failDiamond()
	r := NewRouter(g)
	tr := load.NewTracker(g)
	if err := g.FailArc(arcs[2]); err != nil {
		t.Fatal(err)
	}
	p, err := r.MinLoadPath(Request{Src: 0, Dst: 3}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p.Arcs() {
		if g.ArcFailed(a) {
			t.Fatalf("min-load route crosses failed arc %d", a)
		}
	}
	if err := g.FailArc(arcs[0]); err != nil {
		t.Fatal(err)
	}
	var nr ErrNoRoute
	if _, err := r.MinLoadPath(Request{Src: 0, Dst: 3}, tr); !errors.As(err, &nr) {
		t.Fatalf("disconnected min-load: %v, want ErrNoRoute", err)
	}
}

func TestReachableSetSkipsFailedArcs(t *testing.T) {
	g, arcs := failDiamond()
	if err := g.FailArc(arcs[0]); err != nil {
		t.Fatal(err)
	}
	if err := g.FailArc(arcs[2]); err != nil {
		t.Fatal(err)
	}
	reqs := AllToAll(g)
	for _, req := range reqs {
		if req.Src == 0 && (req.Dst == 1 || req.Dst == 2 || req.Dst == 3) {
			t.Fatalf("AllToAll offered unreachable pair %v", req)
		}
	}
}
