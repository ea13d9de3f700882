package wdm

import (
	"errors"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/route"
)

// TestAddAllocs pins what an Add allocates on a budgeted session, on
// the Theorem-1 precheck and on the rollback probe, for a route of 8
// arcs, the longest that is carved as one object. A refused Add
// allocates only its routed path: the refusal error is built once per
// session and the admission context is the session's. An accepted Add
// followed by its Remove allocates only the path too (it used to take
// 4 objects: the path in three pieces, and the color class that the
// Remove emptied, regrown by the next Add).
func TestAddAllocs(t *testing.T) {
	g := digraph.New(9)
	for i := 0; i < 8; i++ {
		g.MustAddArc(digraph.Vertex(i), digraph.Vertex(i+1))
	}
	req := route.Request{Src: 0, Dst: 8}
	for _, probe := range []bool{false, true} {
		opts := []SessionOption{WithWavelengthBudget(1)}
		if probe {
			opts = append(opts, withAdmissionRollbackProbe())
		}
		full, err := (&Network{Topology: g}).NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.Add(req); err != nil {
			t.Fatal(err)
		}
		_, err = full.Add(req)
		if !errors.Is(err, ErrBudgetExceeded) || err.Error() != "wdm: admission: wdm: wavelength budget exceeded (budget 1)" {
			t.Fatalf("probe %v: refusal %v", probe, err)
		}
		if n := testing.AllocsPerRun(100, func() { full.Add(req) }); n > 1 {
			t.Errorf("probe %v: a refused Add allocates %v objects, want at most 1", probe, n)
		}
		empty, err := (&Network{Topology: g}).NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(100, func() {
			id, err := empty.Add(req)
			if err == nil {
				err = empty.Remove(id)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("probe %v: an accepted Add and its Remove allocate %v objects, want at most 1", probe, n)
		}
	}
}
