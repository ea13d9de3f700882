// Package check centralises the verification predicates used by tests,
// benchmarks and the experiment harness: coloring validity, bound
// assertions and witness extraction. Keeping them in one place ensures
// the experiments are judged by code independent of the algorithms under
// test.
package check

import (
	"fmt"

	"wavedag/internal/conflict"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
)

// Coloring verifies that colors is a proper wavelength assignment for fam
// on g: one non-negative wavelength per dipath, arc-sharing dipaths
// differently colored. It reports the first violation with a witness.
func Coloring(g *digraph.Digraph, fam dipath.Family, colors []int) error {
	if len(colors) != len(fam) {
		return fmt.Errorf("check: %d colors for %d dipaths", len(colors), len(fam))
	}
	for i, c := range colors {
		if c < 0 {
			return fmt.Errorf("check: dipath %d uncolored", i)
		}
	}
	inc := dipath.ArcIncidence(g, fam)
	for a := 0; a < inc.NumArcs(); a++ {
		paths := inc.On(digraph.ArcID(a))
		byColor := make(map[int]int, len(paths))
		for _, q := range paths {
			p := int(q)
			if q, clash := byColor[colors[p]]; clash {
				return fmt.Errorf("check: dipaths %d and %d share arc %d and wavelength %d", q, p, a, colors[p])
			}
			byColor[colors[p]] = p
		}
	}
	return nil
}

// WavelengthsWithinLoad verifies Theorem 1's conclusion on a concrete
// coloring: the number of wavelengths equals the load π (when π >= 1).
func WavelengthsWithinLoad(g *digraph.Digraph, fam dipath.Family, colors []int) error {
	if err := Coloring(g, fam, colors); err != nil {
		return err
	}
	pi := load.Pi(g, fam)
	used := conflict.CountColors(colors)
	if pi >= 1 && used != pi {
		return fmt.Errorf("check: %d wavelengths used, want exactly π = %d", used, pi)
	}
	return nil
}

// WavelengthsWithinBound verifies w <= ⌈num/den · π⌉ for a coloring (the
// Theorem 6 check uses num=4, den=3).
func WavelengthsWithinBound(g *digraph.Digraph, fam dipath.Family, colors []int, num, den int) error {
	if err := Coloring(g, fam, colors); err != nil {
		return err
	}
	pi := load.Pi(g, fam)
	if pi == 0 {
		return nil
	}
	bound := (num*pi + den - 1) / den
	if used := conflict.CountColors(colors); used > bound {
		return fmt.Errorf("check: %d wavelengths used, bound ⌈%d/%d·π⌉ = %d (π = %d)", used, num, den, bound, pi)
	}
	return nil
}

// LowerBoundByIndependence returns the lower bound ⌈|P| / α⌉ on the
// number of wavelengths, where α is the independence number of the
// conflict graph — the argument Theorem 7 uses for its tight instance.
func LowerBoundByIndependence(g *digraph.Digraph, fam dipath.Family) int {
	if len(fam) == 0 {
		return 0
	}
	cg := conflict.FromFamily(g, fam)
	alpha := cg.IndependenceNumber()
	if alpha == 0 {
		return 0
	}
	return (len(fam) + alpha - 1) / alpha
}

// PiLowerBoundsColors confirms π ≤ (number of wavelengths) for any proper
// coloring — the trivial direction of the equality.
func PiLowerBoundsColors(g *digraph.Digraph, fam dipath.Family, colors []int) error {
	if err := Coloring(g, fam, colors); err != nil {
		return err
	}
	pi := load.Pi(g, fam)
	if used := conflict.CountColors(colors); used < pi {
		return fmt.Errorf("check: impossible: %d wavelengths below π = %d", used, pi)
	}
	return nil
}
