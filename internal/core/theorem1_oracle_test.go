package core

import (
	"fmt"

	"wavedag/internal/dag"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// This file keeps the Theorem-1 peel as it was before the production
// peel learned to resume its duplicate scan and to track the colors of
// P0 in a bitset: every insertion restarts findDuplicate at the first
// alive suffix and colorUnusedBy at color 0. It is the oracle the
// equivalence test and FuzzTheorem1Peel compare the production peel
// against, color for color and error for error.

// oracleArcIncidence is the [][]int arc incidence the oracle peel was
// written against: the indices of the family members on each arc, in
// family order.
func oracleArcIncidence(g *digraph.Digraph, f dipath.Family) [][]int {
	inc := make([][]int, g.NumArcs())
	for i, p := range f {
		for _, a := range p.Arcs() {
			inc[a] = append(inc[a], i)
		}
	}
	return inc
}

// oraclePeelTheorem1 runs the Theorem-1 peel on a pre-validated family over a
// DAG g without internal cycle; callers establish the hypothesis (a zero
// cycles.IndependentCycleCount rules out directed and internal cycles
// alike).
func oraclePeelTheorem1(g *digraph.Digraph, fam dipath.Family) (*Result, error) {
	st, err := newOraclePeelState(g, fam)
	if err != nil {
		return nil, err
	}
	// Replay the peeling order backwards: the last-deleted arc is the
	// first re-inserted.
	for k := len(st.peel) - 1; k >= 0; k-- {
		if err := st.insertArc(st.peel[k]); err != nil {
			return nil, err
		}
	}
	colors := st.colors
	for i := range colors {
		if colors[i] < 0 { // single-vertex dipaths
			colors[i] = 0
		}
	}
	return newResult(colors, st.palette), nil
}

// oraclePeelState carries the incremental coloring of the suffix family.
type oraclePeelState struct {
	g    *digraph.Digraph
	fam  dipath.Family
	peel []digraph.ArcID // deletion order; re-inserted in reverse

	peelPos []int // peelPos[arc] = index of arc in peel

	// pathsOnArcAll[a] = indices of family members containing arc a.
	// Once a is inserted, all of them have a in their alive suffix.
	pathsOnArcAll [][]int
	// start[p] = index into fam[p].Arcs() of the first alive arc
	// (len(arcs) when the whole dipath is still deleted).
	start []int
	// colors[p] = current wavelength of the alive suffix, -1 if dead.
	colors []int
	// palette = number of wavelengths available = max arc load seen.
	palette int
	// scratch marks for chain flips, reset per chain via generation counter.
	flipGen  []int
	chainGen int
	// Generation-stamped color marks shared by findDuplicate,
	// colorUnusedBy and insertArc — the zero-allocation replacement for
	// the per-call map[int]bool palettes these used to build. colorGen[c]
	// is valid when it equals colorMark; colorBy[c] is the path that
	// marked c this generation.
	colorGen  []int
	colorBy   []int
	colorMark int
	// Scratch reused across insertions and chains: the alive suffixes
	// through the arc being inserted, and a chain's frontier and next
	// frontier.
	alive, frontier, next []int
}

// markColors starts a fresh color-marking generation.
func (st *oraclePeelState) markColors() { st.colorMark++ }

func (st *oraclePeelState) markColor(c, p int) { st.colorGen[c] = st.colorMark; st.colorBy[c] = p }

func (st *oraclePeelState) colorMarked(c int) bool { return st.colorGen[c] == st.colorMark }

func newOraclePeelState(g *digraph.Digraph, fam dipath.Family) (*oraclePeelState, error) {
	peel, err := dag.ArcPeelingOrder(g)
	if err != nil {
		return nil, err
	}
	st := &oraclePeelState{
		g:             g,
		fam:           fam,
		peel:          peel,
		peelPos:       make([]int, g.NumArcs()),
		pathsOnArcAll: oracleArcIncidence(g, fam),
		start:         make([]int, len(fam)),
		colors:        make([]int, len(fam)),
		flipGen:       make([]int, len(fam)),
		colorGen:      make([]int, len(fam)+1),
		colorBy:       make([]int, len(fam)+1),
	}
	for i, a := range peel {
		st.peelPos[a] = i
	}
	for p, path := range fam {
		st.start[p] = path.NumArcs() // everything deleted initially
		st.colors[p] = -1
		// Invariant behind the suffix representation: along any dipath the
		// peel positions of its arcs strictly increase (tails appear in
		// topological order).
		arcs := path.Arcs()
		for i := 1; i < len(arcs); i++ {
			if st.peelPos[arcs[i-1]] >= st.peelPos[arcs[i]] {
				return nil, fmt.Errorf("core: internal error: peel positions not increasing along dipath %d", p)
			}
		}
	}
	return st, nil
}

// insertArc re-inserts arc e, extending every dipath through it and
// recoloring so that all of them receive pairwise distinct wavelengths.
func (st *oraclePeelState) insertArc(e digraph.ArcID) error {
	q0 := st.pathsOnArcAll[e]
	if len(q0) == 0 {
		return nil
	}
	pi0 := len(q0) // load of e at insertion time: every dipath through e restarts here
	if pi0 > st.palette {
		st.palette = pi0
	}
	// P0 of the proof: the alive (non-empty) suffixes of the dipaths of
	// Q0, the ones colored so far.
	alive := st.alive[:0]
	for _, p := range q0 {
		if st.colors[p] >= 0 {
			alive = append(alive, p)
		}
	}
	st.alive = alive
	// Recolor until the alive suffixes have pairwise distinct colors.
	for {
		dupA, dupB, ok := st.findDuplicate(alive)
		if !ok {
			break
		}
		beta, err := st.colorUnusedBy(alive)
		if err != nil {
			return err
		}
		if err := st.runChain(dupA, dupB, beta); err != nil {
			return err
		}
	}
	// Extend: every dipath of Q0 now starts at e; dead ones need fresh
	// colors distinct from the alive ones and from each other.
	st.markColors()
	for _, p := range alive {
		st.markColor(st.colors[p], p)
	}
	next := 0
	for _, p := range q0 {
		// e must be the arc just before the alive suffix: the dipath is
		// simple, so this is the ArcIndex check in O(1).
		start := st.start[p]
		if start == 0 || st.fam[p].Arc(start-1) != e {
			return fmt.Errorf("core: internal error: dipath %d suffix start %d, expected %d", p, start, st.fam[p].ArcIndex(e)+1)
		}
		st.start[p] = start - 1
		if st.colors[p] >= 0 {
			continue // alive suffix keeps its color
		}
		for next < st.palette && st.colorMarked(next) {
			next++
		}
		if next >= st.palette {
			return fmt.Errorf("core: internal error: palette %d exhausted at arc %d", st.palette, e)
		}
		st.colors[p] = next
		st.markColor(next, p)
	}
	return nil
}

// findDuplicate returns two distinct paths of the set sharing a color.
func (st *oraclePeelState) findDuplicate(paths []int) (int, int, bool) {
	st.markColors()
	for _, p := range paths {
		c := st.colors[p]
		if st.colorMarked(c) {
			return st.colorBy[c], p, true
		}
		st.markColor(c, p)
	}
	return -1, -1, false
}

// colorUnusedBy returns a palette color not used by any path of the set.
func (st *oraclePeelState) colorUnusedBy(paths []int) (int, error) {
	st.markColors()
	for _, p := range paths {
		st.markColor(st.colors[p], p)
	}
	for c := 0; c < st.palette; c++ {
		if !st.colorMarked(c) {
			return c, nil
		}
	}
	return -1, fmt.Errorf("core: internal error: no free color in palette of %d for %d anchored dipaths", st.palette, len(paths))
}

// runChain performs the alternating recoloring of the proof of Theorem 1:
// anchor keeps its color α, mover is flipped from α to β, and conflicting
// color classes are flipped alternately until the coloring is proper
// again. Reaching the anchor is the proof's case C and certifies an
// internal cycle — impossible here, reported as an error for defence in
// depth.
func (st *oraclePeelState) runChain(anchor, mover, beta int) error {
	alpha := st.colors[mover]
	st.chainGen++
	st.flipGen[mover] = st.chainGen
	st.colors[mover] = beta
	frontier := append(st.frontier[:0], mover)
	next := st.next[:0]
	conflictColor, newColor := beta, alpha
	for len(frontier) > 0 {
		next = next[:0]
		for _, p := range frontier {
			arcs := st.fam[p].Arcs()
			for _, a := range arcs[st.start[p]:] {
				for _, q := range st.pathsOnArcAll[a] {
					if q == p || st.colors[q] != conflictColor {
						continue
					}
					if st.flipGen[q] == st.chainGen {
						// Flipped earlier in this chain: by the case-B
						// argument it can no longer conflict; skip.
						continue
					}
					if q == anchor {
						return fmt.Errorf("core: recoloring chain reached the anchored dipath (case C): %w", ErrInternalCycle)
					}
					st.flipGen[q] = st.chainGen
					st.colors[q] = newColor
					next = append(next, q)
				}
			}
		}
		frontier, next = next, frontier
		conflictColor, newColor = newColor, conflictColor
	}
	st.frontier, st.next = frontier, next
	return nil
}
