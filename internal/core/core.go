// Package core implements the two constructive results of Bermond &
// Cosnard, "Minimum number of wavelengths equals load in a DAG without
// internal cycle" (IPDPS 2007):
//
//   - Theorem 1: on a DAG without internal cycle, every family of dipaths
//     can be colored with exactly π(G,P) wavelengths
//     (ColorNoInternalCycle);
//   - Theorem 6: on an UPP-DAG with exactly one internal cycle, every
//     family can be colored with at most ⌈4π/3⌉ wavelengths
//     (ColorOneInternalCycleUPP).
//
// ColorDAG dispatches between them and falls back to the DSATUR heuristic
// on DAGs outside both hypotheses (where, by the paper's Figure 1, no
// function of π can bound w in general).
package core

import (
	"errors"
	"fmt"

	"wavedag/internal/conflict"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/upp"
)

// ErrInternalCycle is returned by ColorNoInternalCycle when the input DAG
// contains an internal cycle, violating Theorem 1's hypothesis.
var ErrInternalCycle = errors.New("core: DAG contains an internal cycle")

// ErrNotUPP is returned by ColorOneInternalCycleUPP when the input digraph
// is not an UPP-DAG.
var ErrNotUPP = errors.New("core: digraph is not an UPP-DAG")

// Result is a wavelength assignment for a dipath family.
type Result struct {
	// Colors[i] is the wavelength of family[i]; wavelengths are dense
	// integers starting at 0.
	Colors []int
	// NumColors is the number of distinct wavelengths used.
	NumColors int
	// Pi is the load π(G,P) of the instance.
	Pi int
}

func newResult(colors []int, pi int) *Result {
	return &Result{Colors: colors, NumColors: conflict.CountColors(colors), Pi: pi}
}

// Method identifies which algorithm produced a coloring.
type Method string

// Methods reported by ColorDAG and the incremental engine.
const (
	MethodTheorem1 Method = "theorem1" // exact, w = π
	MethodTheorem6 Method = "theorem6" // w ≤ ⌈4π/3⌉
	MethodDSATUR   Method = "dsatur"   // heuristic fallback
	// MethodIncremental marks colorings maintained online by an
	// Incremental colorer (first-fit + bounded repair + slack-gated
	// full recolor) rather than computed by a one-shot theorem.
	MethodIncremental Method = "incremental"
)

// ColorDAG colors fam on the DAG g with the strongest applicable result:
// Theorem 1 when g has no internal cycle, Theorem 6 when g is UPP with
// exactly one internal cycle, DSATUR otherwise.
func ColorDAG(g *digraph.Digraph, fam dipath.Family) (*Result, Method, error) {
	if err := fam.Validate(g); err != nil {
		return nil, "", err
	}
	return ColorDAGPrevalidated(g, fam)
}

// ColorDAGPrevalidated is ColorDAG for families whose paths are already
// known to be valid dipaths of g — routing output, session-held slot
// tables — and skips the O(total path length) revalidation that
// dominated the one-shot pipeline when run per call. The theorem
// dispatch is otherwise identical; feeding it paths built against a
// different graph may panic instead of returning an error.
func ColorDAGPrevalidated(g *digraph.Digraph, fam dipath.Family) (*Result, Method, error) {
	return colorDAGCounted(g, fam, cycles.IndependentCycleCount(g))
}

// colorDAGCounted is ColorDAGPrevalidated given g's independent cycle
// count, which a caller that colors one graph many times caches. The
// DSATUR fallback reads the family's arc incidence (see dsatur) and
// runs in the caller's goroutine.
func colorDAGCounted(g *digraph.Digraph, fam dipath.Family, count int) (*Result, Method, error) {
	if count == 0 {
		res, err := peelTheorem1(g, fam)
		return res, MethodTheorem1, err
	}
	if count == 1 {
		if ok, _, _, err := upp.IsUPP(g); err == nil && ok {
			res, err := colorOneInternalCycleUPP(g, fam)
			return res, MethodTheorem6, err
		}
	}
	return newResult(dsatur(g, fam), load.Pi(g, fam)), MethodDSATUR, nil
}

// Verify checks that res is a proper wavelength assignment for fam on g
// (conflicting dipaths have different wavelengths).
//
// A proper assignment is accepted by OR-ing each dipath's wavelength
// bit into per-arc masks, in time linear in the family's arcs. Anything
// else — an uncolored entry, a wavelength bit already set on an arc (a
// conflict, or a dipath repeating an arc), or masks that would outgrow
// the n²-bit rows of the conflict graph — goes to the dense check over
// conflict.FromFamily, so every verdict and error text is the dense
// check's.
func Verify(g *digraph.Digraph, fam dipath.Family, res *Result) error {
	if res == nil {
		return fmt.Errorf("core: nil result")
	}
	if len(res.Colors) != len(fam) {
		return fmt.Errorf("core: %d colors for %d dipaths", len(res.Colors), len(fam))
	}
	if !properByArcMasks(g, fam, res.Colors) {
		return conflict.FromFamily(g, fam).ValidateColoring(res.Colors)
	}
	return nil
}

// properByArcMasks reports whether colors is a proper assignment it can
// confirm with per-arc wavelength masks: every color non-negative, no
// wavelength twice on one arc, and masks no larger than the conflict
// graph's rows. False means "not confirmed", not "improper".
func properByArcMasks(g *digraph.Digraph, fam dipath.Family, colors []int) bool {
	maxC := -1
	for _, c := range colors {
		if c < 0 {
			return false
		}
		maxC = max(maxC, c)
	}
	if maxC < 0 {
		return true // no dipaths
	}
	// w mask words per arc; m·w must not exceed the dense rows' words.
	w := maxC/64 + 1
	if dense := len(fam) * ((len(fam) + 63) / 64); w > dense/max(g.NumArcs(), 1) {
		return false
	}
	masks := make([]uint64, g.NumArcs()*w)
	for i, p := range fam {
		c := colors[i]
		bit := uint64(1) << (c & 63)
		for _, a := range p.Arcs() {
			word := &masks[int(a)*w+c>>6]
			if *word&bit != 0 {
				return false
			}
			*word |= bit
		}
	}
	return true
}
