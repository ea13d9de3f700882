package core

import (
	"fmt"
	"math/bits"

	"wavedag/internal/cycles"
	"wavedag/internal/dag"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// ColorNoInternalCycle colors fam with exactly π(G,P) wavelengths on a
// DAG g without internal cycle — the constructive proof of Theorem 1.
//
// The inductive argument of the paper is replayed iteratively. Arcs are
// ordered by the topological index of their tails (dag.ArcPeelingOrder):
// deleting them in that order always deletes an arc whose tail is a
// source, so re-inserting them in reverse rebuilds the graph the way the
// induction unwinds. Because the deleted arc's tail is a source, the arc
// is the first arc of every dipath containing it, and each dipath's alive
// portion is always a suffix of its arc list.
//
// At each re-insertion of an arc e, the dipaths through e (the family Q0
// of the proof) must end up with pairwise distinct wavelengths. Their
// alive suffixes (P0) are recolored until distinct by the paper's
// alternating-chain procedure: pick two suffixes sharing a color α,
// pick a color β unused by P0, flip one of them to β, then alternately
// flip the conflicting color classes. On a DAG without internal cycle the
// chain never revisits a dipath (case B) and never reaches the anchored
// dipath (case C), so every chain terminates and strictly increases the
// number of colors used by P0.
//
// Single-vertex dipaths carry no load and are assigned wavelength 0.
// The returned coloring uses exactly π colors when π ≥ 1.
func ColorNoInternalCycle(g *digraph.Digraph, fam dipath.Family) (*Result, error) {
	if err := fam.Validate(g); err != nil {
		return nil, err
	}
	if !dag.IsDAG(g) {
		return nil, dag.ErrCyclic
	}
	if cycles.HasInternalCycle(g) {
		return nil, ErrInternalCycle
	}
	return peelTheorem1(g, fam)
}

// peelTheorem1 runs the Theorem-1 peel on a pre-validated family over a
// DAG g without internal cycle; callers establish the hypothesis (a zero
// cycles.IndependentCycleCount rules out directed and internal cycles
// alike).
func peelTheorem1(g *digraph.Digraph, fam dipath.Family) (*Result, error) {
	st, err := newPeelState(g, fam)
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

// peelState carries the incremental coloring of the suffix family.
// Its scratch arrays are int32, like the incidence it reads.
type peelState struct {
	g    *digraph.Digraph
	fam  dipath.Family
	peel []digraph.ArcID // deletion order; re-inserted in reverse

	// inc lists the family members containing each arc. Once an arc a is
	// inserted, all of inc.On(a) have a in their alive suffix.
	inc dipath.Incidence
	// start[p] = index into fam[p].Arcs() of the first alive arc
	// (len(arcs) when the whole dipath is still deleted).
	start []int32
	// colors[p] = current wavelength of the alive suffix, -1 if dead.
	colors []int
	// palette = number of wavelengths available = max arc load seen.
	palette int
	// scratch marks for chain flips, reset per chain via generation
	// counter. Every chain makes one more color used by the suffixes
	// through the arc being inserted, so chains are fewer than the
	// family's arc incidences, which fit in int32.
	flipGen  []int32
	chainGen int32
	// Generation-stamped color marks of insertArc's duplicate scan:
	// colorGen[c] is valid when it equals colorMark, which moves once per
	// inserted arc; colorBy[c] is the path that marked c this
	// generation.
	colorGen  []int32
	colorBy   []int32
	colorMark int32
	// The colors of P0 once the arc being inserted shows a duplicate:
	// inP0[p] == colorMark marks the alive suffixes through the arc,
	// used[c] counts those of color c, and bit c of usedBits is set when
	// used[c] > 0, so the lowest color unused by P0 is the lowest clear
	// bit. runChain keeps them current as it flips members of P0;
	// insertArc clears them.
	inP0     []int32
	used     []int32
	usedBits []uint64
	// Scratch reused across insertions and chains: the alive suffixes
	// through the arc being inserted, and a chain's frontier and next
	// frontier.
	alive, frontier, next []int
}

func (st *peelState) markColor(c, p int) { st.colorGen[c] = st.colorMark; st.colorBy[c] = int32(p) }

func (st *peelState) colorMarked(c int) bool { return st.colorGen[c] == st.colorMark }

// countColor adds d to the number of alive suffixes through the arc
// being inserted that hold color c.
func (st *peelState) countColor(c int, d int32) {
	st.used[c] += d
	if st.used[c] > 0 {
		st.usedBits[c>>6] |= 1 << (c & 63)
	} else {
		st.usedBits[c>>6] &^= 1 << (c & 63)
	}
}

// recolor gives dipath p color c, keeping the counts of P0 current.
func (st *peelState) recolor(p, c int) {
	if st.inP0[p] == st.colorMark {
		st.countColor(st.colors[p], -1)
		st.countColor(c, 1)
	}
	st.colors[p] = c
}

// unusedColor returns the lowest color unused by P0, or st.palette when
// every palette color is used.
func (st *peelState) unusedColor() int {
	for w, word := range st.usedBits {
		if word != ^uint64(0) {
			return min(w<<6|bits.TrailingZeros64(^word), st.palette)
		}
	}
	return st.palette
}

func newPeelState(g *digraph.Digraph, fam dipath.Family) (*peelState, error) {
	peel, err := dag.ArcPeelingOrder(g)
	if err != nil {
		return nil, err
	}
	inc := dipath.ArcIncidence(g, fam)
	// Colors stay below the palette, which never exceeds π, the longest
	// incidence row: the color-indexed arrays need π+1 entries.
	pi := 0
	for a := 0; a < inc.NumArcs(); a++ {
		pi = max(pi, len(inc.On(digraph.ArcID(a))))
	}
	st := &peelState{
		g:        g,
		fam:      fam,
		peel:     peel,
		inc:      inc,
		start:    make([]int32, len(fam)),
		colors:   make([]int, len(fam)),
		flipGen:  make([]int32, len(fam)),
		colorGen: make([]int32, pi+1),
		colorBy:  make([]int32, pi+1),
		inP0:     make([]int32, len(fam)),
		used:     make([]int32, pi+1),
		usedBits: make([]uint64, (pi+64)/64),
	}
	peelPos := make([]int32, g.NumArcs()) // peelPos[arc] = index of arc in peel
	for i, a := range peel {
		peelPos[a] = int32(i)
	}
	for p, path := range fam {
		st.start[p] = int32(path.NumArcs()) // everything deleted initially
		st.colors[p] = -1
		// Invariant behind the suffix representation: along any dipath the
		// peel positions of its arcs strictly increase (tails appear in
		// topological order). So the reverse peel inserts each dipath's
		// arcs last to first, and the arc inserted into a dipath is always
		// the one just before its alive suffix.
		arcs := path.Arcs()
		for i := 1; i < len(arcs); i++ {
			if peelPos[arcs[i-1]] >= peelPos[arcs[i]] {
				return nil, fmt.Errorf("core: internal error: peel positions not increasing along dipath %d", p)
			}
		}
	}
	return st, nil
}

// insertArc re-inserts arc e, extending every dipath through it and
// recoloring so that all of them receive pairwise distinct wavelengths.
//
// The recoloring is one scan of P0 in family order that marks each
// color with the first suffix holding it. A suffix whose color α is
// already marked is the mover, the marking suffix the anchor; β is the
// lowest color unused by P0, and after the chain the scan resumes at
// the mover rather than at the first suffix. That is exactly what a
// scan restarted from the first suffix would do: the suffixes before
// the mover hold pairwise distinct colors, and a chain flips only
// suffixes of color α or β. None of P0 holds β, and the only suffix
// before the mover holding α is the anchor, which a chain never flips
// (reaching it is case C, an error). So the suffixes before the mover
// keep their colors, a restarted scan would mark them again as they
// are marked, and it would stop at the same (anchor, mover) pairs with
// the same β, giving the same colors. The colors of P0 are counted at
// the first duplicate, so an arc whose suffixes are already distinct
// costs one pass over them.
func (st *peelState) insertArc(e digraph.ArcID) error {
	q0 := st.inc.On(e)
	if len(q0) == 0 {
		return nil
	}
	pi0 := len(q0) // load of e at insertion time: every dipath through e restarts here
	if pi0 > st.palette {
		st.palette = pi0
	}
	// P0 of the proof: the alive (non-empty) suffixes of the dipaths of
	// Q0, the ones colored so far.
	st.colorMark++
	alive := st.alive[:0]
	for _, q := range q0 {
		if p := int(q); st.colors[p] >= 0 {
			alive = append(alive, p)
		}
	}
	st.alive = alive
	// Recolor until the alive suffixes have pairwise distinct colors.
	counted := false
	for i := 0; i < len(alive); {
		p := alive[i]
		c := st.colors[p]
		if !st.colorMarked(c) {
			st.markColor(c, p)
			i++
			continue
		}
		if !counted {
			counted = true
			for _, q := range alive {
				st.inP0[q] = st.colorMark
				st.countColor(st.colors[q], 1)
			}
		}
		beta := st.unusedColor()
		if beta >= st.palette {
			return fmt.Errorf("core: internal error: no free color in palette of %d for %d anchored dipaths", st.palette, len(alive))
		}
		if err := st.runChain(int(st.colorBy[c]), p, beta); err != nil {
			return err
		}
		// The mover now holds β: the scan goes on from it.
	}
	if counted {
		// Every set bit belongs to an alive suffix's color.
		for _, p := range alive {
			st.used[st.colors[p]] = 0
			st.usedBits[st.colors[p]>>6] = 0
		}
	}
	// Extend: every dipath of Q0 now starts at e (newPeelState's
	// invariant); dead ones need fresh colors distinct from the alive
	// ones, which the scan left marked, and from each other.
	next := 0
	for _, q := range q0 {
		p := int(q)
		st.start[p]--
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

// runChain performs the alternating recoloring of the proof of Theorem 1:
// anchor keeps its color α, mover is flipped from α to β, and conflicting
// color classes are flipped alternately until the coloring is proper
// again. Reaching the anchor is the proof's case C and certifies an
// internal cycle — impossible here, reported as an error for defence in
// depth.
func (st *peelState) runChain(anchor, mover, beta int) error {
	alpha := st.colors[mover]
	st.chainGen++
	st.flipGen[mover] = st.chainGen
	st.recolor(mover, beta)
	frontier := append(st.frontier[:0], mover)
	next := st.next[:0]
	conflictColor, newColor := beta, alpha
	for len(frontier) > 0 {
		next = next[:0]
		for _, p := range frontier {
			arcs := st.fam[p].Arcs()
			for _, a := range arcs[st.start[p]:] {
				for _, x := range st.inc.On(a) {
					q := int(x)
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
					st.recolor(q, newColor)
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
