package core

import (
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
)

// FuzzIncrementalOps decodes bytes into an op stream against one
// Incremental and checks, after every step, that the assignment is
// proper, that every arc's wavelength mask is the OR of its live paths'
// colors, and that firstFit matches the neighbour-walk oracle. The
// first byte picks the topology (a Theorem 1 DAG, a general random DAG,
// the Theorem 2 gadget, Havet's instance or the staircase, seeded by
// the byte); every following byte triple (op, x, y) is one step: Add of
// pool path x, AddUnderLimit of pool path x under limit 1+y%6, Remove
// of live path x, or a new arc between the x-th and y-th vertices in
// topological order. Families stay small, because the χ > π instances
// reach Theorem 6's unbounded exact repair.
func FuzzIncrementalOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 1, 3, 2, 2, 0, 0, 3, 5, 9, 0, 7, 0, 1, 4, 1})
	f.Add([]byte{1, 0, 3, 0, 1, 5, 1, 0, 8, 0, 3, 2, 4, 0, 9, 0, 2, 1, 0, 1, 6, 2})
	f.Add([]byte{2, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 2, 0, 1, 5, 1, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0})
	f.Add([]byte{4, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 4, 1, 2, 0, 0, 3, 7, 20, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("not enough bytes")
		}
		g, pool := fuzzInstance(t, data[0])
		c := newFFChurn(t, g, pool, 0)
		for i, op := 1, 0; i+2 < len(data) && op < 64; i, op = i+3, op+1 {
			x, y := int(data[i+1]), int(data[i+2])
			switch data[i] % 4 {
			case 0:
				if len(c.live) < 16 {
					c.add(x, 0)
				}
			case 1:
				if len(c.live) < 16 {
					c.add(x, 1+y%6)
				}
			case 2:
				c.remove(x)
			case 3:
				c.grow(x, y)
			}
			c.check(op)
		}
	})
}

// fuzzInstance returns the topology and request pool the selector byte
// picks.
func fuzzInstance(t *testing.T, sel byte) (*digraph.Digraph, dipath.Family) {
	seed := int64(sel / 5)
	switch sel % 5 {
	case 0:
		g, err := gen.RandomNoInternalCycleDAG(8, 2, 2, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g, gen.RandomWalkFamily(g, 24, 5, seed)
	case 1:
		g := gen.RandomDAG(10, 22, seed)
		return g, gen.RandomWalkFamily(g, 24, 5, seed)
	case 2:
		g, fam, err := gen.InternalCycleGadget(2 + int(seed%3))
		if err != nil {
			t.Fatal(err)
		}
		return g, fam.Replicate(2)
	case 3:
		g, fam := gen.Havet()
		return g, fam.Replicate(2)
	default:
		g, fam, err := gen.Fig1Staircase(3 + int(seed%6))
		if err != nil {
			t.Fatal(err)
		}
		return g, fam
	}
}
