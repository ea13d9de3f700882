package dipath

import (
	"slices"
	"testing"

	"wavedag/internal/digraph"
)

// line returns the path graph 0->1->2->3->4 and its 4 arcs.
func line() *digraph.Digraph {
	g := digraph.New(5)
	for i := 0; i < 4; i++ {
		g.MustAddArc(digraph.Vertex(i), digraph.Vertex(i+1))
	}
	return g
}

func TestFromVertices(t *testing.T) {
	g := line()
	p, err := FromVertices(g, 0, 1, 2)
	if err != nil {
		t.Fatalf("FromVertices: %v", err)
	}
	if p.First() != 0 || p.Last() != 2 || p.NumArcs() != 2 || p.NumVertices() != 3 {
		t.Fatalf("path shape wrong: %v", p)
	}
	if p.Arc(0) != 0 || p.Arc(1) != 1 {
		t.Fatalf("arcs = %v", p.Arcs())
	}
	if p.Vertex(1) != 1 {
		t.Fatalf("Vertex(1) = %d", p.Vertex(1))
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFromVerticesErrors(t *testing.T) {
	g := line()
	if _, err := FromVertices(g); err == nil {
		t.Fatal("empty sequence accepted")
	}
	if _, err := FromVertices(g, 0, 2); err == nil {
		t.Fatal("missing arc accepted")
	}
}

func TestSingleVertexPath(t *testing.T) {
	g := line()
	p, err := FromVertices(g, 3)
	if err != nil {
		t.Fatalf("single-vertex path rejected: %v", err)
	}
	if p.NumArcs() != 0 || p.First() != 3 || p.Last() != 3 {
		t.Fatalf("single-vertex path wrong: %v", p)
	}
	q := MustFromVertices(g, 2, 3)
	if p.SharesArc(q) || q.SharesArc(p) {
		t.Fatal("single-vertex path reported a conflict")
	}
}

func TestFromArcs(t *testing.T) {
	g := line()
	p, err := FromArcs(g, 1, 2)
	if err != nil {
		t.Fatalf("FromArcs: %v", err)
	}
	if p.First() != 1 || p.Last() != 3 {
		t.Fatalf("path = %v", p)
	}
	if _, err := FromArcs(g); err == nil {
		t.Fatal("empty arc list accepted")
	}
	if _, err := FromArcs(g, 0, 2); err == nil {
		t.Fatal("non-chaining arcs accepted")
	}
	if _, err := FromArcs(g, 99); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
}

func TestMustFromVerticesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustFromVertices(line(), 0, 3)
}

func TestContainsAndIndex(t *testing.T) {
	g := line()
	p := MustFromVertices(g, 1, 2, 3)
	if !p.ContainsArc(1) || !p.ContainsArc(2) || p.ContainsArc(0) || p.ContainsArc(3) {
		t.Fatal("ContainsArc wrong")
	}
	if p.ArcIndex(2) != 1 || p.ArcIndex(0) != -1 {
		t.Fatal("ArcIndex wrong")
	}
	if !p.ContainsVertex(2) || p.ContainsVertex(0) {
		t.Fatal("ContainsVertex wrong")
	}
}

func TestSharesArcAndSharedArcs(t *testing.T) {
	g := line()
	p := MustFromVertices(g, 0, 1, 2)
	q := MustFromVertices(g, 1, 2, 3)
	r := MustFromVertices(g, 3, 4)
	if !p.SharesArc(q) || !q.SharesArc(p) {
		t.Fatal("overlapping paths not in conflict")
	}
	if p.SharesArc(r) {
		t.Fatal("disjoint paths in conflict")
	}
	shared := p.SharedArcs(q)
	if len(shared) != 1 || shared[0] != 1 {
		t.Fatalf("SharedArcs = %v, want [1]", shared)
	}
	// Paths sharing only a vertex are NOT in conflict (arc-disjointness is
	// the constraint in the WDM model).
	s := MustFromVertices(g, 2, 3)
	if p.SharesArc(s) {
		t.Fatal("vertex-sharing counted as conflict")
	}
}

func TestSubpath(t *testing.T) {
	g := line()
	p := MustFromVertices(g, 0, 1, 2, 3, 4)
	sub, err := p.Subpath(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sub.First() != 1 || sub.Last() != 3 || sub.NumArcs() != 2 {
		t.Fatalf("Subpath = %v", sub)
	}
	if err := sub.Validate(g); err != nil {
		t.Fatal(err)
	}
	one, err := p.Subpath(2, 2)
	if err != nil || one.NumArcs() != 0 || one.First() != 2 {
		t.Fatalf("Subpath(2,2) = %v, %v", one, err)
	}
	if _, err := p.Subpath(3, 1); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if _, err := p.Subpath(-1, 2); err == nil {
		t.Fatal("negative bound accepted")
	}
	if _, err := p.Subpath(0, 9); err == nil {
		t.Fatal("overflow bound accepted")
	}
}

func TestDropFirstArc(t *testing.T) {
	g := line()
	p := MustFromVertices(g, 0, 1, 2)
	q, err := p.DropFirstArc()
	if err != nil {
		t.Fatal(err)
	}
	if q.First() != 1 || q.Last() != 2 || q.NumArcs() != 1 {
		t.Fatalf("DropFirstArc = %v", q)
	}
	r, err := q.DropFirstArc()
	if err != nil || r.NumArcs() != 0 || r.First() != 2 {
		t.Fatalf("second shrink = %v, %v", r, err)
	}
	if _, err := r.DropFirstArc(); err == nil {
		t.Fatal("shrinking single-vertex path accepted")
	}
	// Original untouched.
	if p.NumArcs() != 2 {
		t.Fatal("DropFirstArc mutated the receiver")
	}
}

func TestConcat(t *testing.T) {
	g := line()
	p := MustFromVertices(g, 0, 1, 2)
	q := MustFromVertices(g, 2, 3)
	pq, err := p.Concat(q)
	if err != nil {
		t.Fatal(err)
	}
	if pq.First() != 0 || pq.Last() != 3 || pq.NumArcs() != 3 {
		t.Fatalf("Concat = %v", pq)
	}
	if err := pq.Validate(g); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Concat(p); err == nil {
		t.Fatal("mismatched concat accepted")
	}
}

func TestEqual(t *testing.T) {
	g := line()
	p := MustFromVertices(g, 0, 1, 2)
	q := MustFromVertices(g, 0, 1, 2)
	r := MustFromVertices(g, 0, 1)
	if !p.Equal(q) {
		t.Fatal("identical paths not Equal")
	}
	if p.Equal(r) {
		t.Fatal("different paths Equal")
	}
}

func TestStringRendering(t *testing.T) {
	g := line()
	p := MustFromVertices(g, 0, 1, 2)
	if p.String() != "0->1->2" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := line()
	p := MustFromVertices(g, 0, 1, 2)
	// Corrupt a copy through direct construction.
	bad := &Path{vertices: []digraph.Vertex{0, 2, 3}, arcs: []digraph.ArcID{0, 2}}
	if err := bad.Validate(g); err == nil {
		t.Fatal("corrupted path validated")
	}
	bad2 := &Path{vertices: []digraph.Vertex{0, 1}, arcs: nil}
	if err := bad2.Validate(g); err == nil {
		t.Fatal("arc/vertex count mismatch validated")
	}
	bad3 := &Path{vertices: []digraph.Vertex{0, 1}, arcs: []digraph.ArcID{77}}
	if err := bad3.Validate(g); err == nil {
		t.Fatal("out-of-range arc validated")
	}
	_ = p
}

func TestValidateRejectsRepeatedVertex(t *testing.T) {
	// Graph with a "cycle" through distinct arcs is impossible in a DAG,
	// but a hand-built Path could still repeat a vertex; Validate rejects.
	g := digraph.New(3)
	a01 := g.MustAddArc(0, 1)
	a10 := g.MustAddArc(1, 0)
	bad := &Path{vertices: []digraph.Vertex{0, 1, 0}, arcs: []digraph.ArcID{a01, a10}}
	if err := bad.Validate(g); err == nil {
		t.Fatal("vertex-repeating walk validated as dipath")
	}
}

func TestFamilyValidate(t *testing.T) {
	g := line()
	f := Family{MustFromVertices(g, 0, 1), MustFromVertices(g, 1, 2)}
	if err := f.Validate(g); err != nil {
		t.Fatal(err)
	}
	f = append(f, nil)
	if err := f.Validate(g); err == nil {
		t.Fatal("nil path validated")
	}
}

func TestFamilyReplicate(t *testing.T) {
	g := line()
	f := Family{MustFromVertices(g, 0, 1), MustFromVertices(g, 1, 2)}
	r := f.Replicate(3)
	if len(r) != 6 {
		t.Fatalf("Replicate(3) len = %d", len(r))
	}
	if !r[0].Equal(r[1]) || !r[0].Equal(r[2]) || r[2].Equal(r[3]) {
		t.Fatal("replication order wrong")
	}
	if f.Replicate(0) != nil {
		t.Fatal("Replicate(0) should be nil")
	}
}

func TestFamilyClone(t *testing.T) {
	g := line()
	f := Family{MustFromVertices(g, 0, 1)}
	c := f.Clone()
	c[0] = nil
	if f[0] == nil {
		t.Fatal("Clone aliases backing array")
	}
}

func TestArcIncidence(t *testing.T) {
	g := line()
	f := Family{
		MustFromVertices(g, 0, 1, 2), // arcs 0,1
		MustFromVertices(g, 1, 2, 3), // arcs 1,2
		MustFromVertices(g, 4),       // no arcs
		MustFromVertices(g, 1, 2),    // arc 1
	}
	inc := ArcIncidence(g, f)
	if inc.NumArcs() != g.NumArcs() {
		t.Fatalf("incidence rows = %d, want %d", inc.NumArcs(), g.NumArcs())
	}
	want := [][]int32{{0}, {0, 1, 3}, {1}, {}}
	for a, w := range want {
		if got := inc.On(digraph.ArcID(a)); !slices.Equal(got, w) {
			t.Fatalf("arc %d: members %v, want %v", a, got, w)
		}
	}
	if empty := ArcIncidence(g, nil); empty.NumArcs() != g.NumArcs() || len(empty.On(3)) != 0 {
		t.Fatalf("empty family: %d rows", empty.NumArcs())
	}
	if none := ArcIncidence(digraph.New(2), nil); none.NumArcs() != 0 {
		t.Fatalf("arcless graph: %d rows", none.NumArcs())
	}
}

func TestFromArcsTrustedMatchesFromArcs(t *testing.T) {
	g := line()
	for _, arcs := range [][]digraph.ArcID{{0}, {1, 2}, {0, 1, 2, 3}} {
		want, err := FromArcs(g, arcs...)
		if err != nil {
			t.Fatal(err)
		}
		got := FromArcsTrusted(g, append([]digraph.ArcID(nil), arcs...)...)
		if !got.Equal(want) {
			t.Fatalf("FromArcsTrusted(%v) = %v, want %v", arcs, got, want)
		}
		if err := got.Validate(g); err != nil {
			t.Fatalf("FromArcsTrusted(%v): %v", arcs, err)
		}
	}
}
