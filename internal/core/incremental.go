package core

import (
	"fmt"
	"math/bits"
	"slices"

	"wavedag/internal/conflict"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// DefaultSlack is the recoloring slack used when a caller passes a
// non-positive value: the incremental coloring is allowed to drift this
// many wavelengths above the incremental lower bound before a full
// recolor is forced.
const DefaultSlack = 2

// defaultRecolorBudget bounds the local repair on removal: only color
// classes at most this large are candidates for being recolored away.
const defaultRecolorBudget = 4

// warmRecolorBudget bounds how many consecutive slack-gate crossings on
// a hard (χ>π) instance may be answered by the warm repack alone before
// the cold from-scratch pipeline must run again. Only the cold pipeline
// can discover that χ dropped as the family churned, so the budget is
// the staleness bound on the ceiling; between cold probes, a gate
// crossing costs O(Σ len(path)) instead of a conflict-graph rebuild plus
// theorem run.
const warmRecolorBudget = 8

// Incremental maintains a proper wavelength assignment for a mutable
// dipath family — the coloring layer of the dynamic provisioning engine.
// It owns a conflict.Dynamic and keeps three invariants across Add and
// Remove:
//
//   - the assignment is always proper (Verify-clean against a snapshot);
//   - NumLambda counts the distinct wavelengths in use exactly;
//   - NumLambda ≤ LowerBound() + slack whenever the one-shot pipeline
//     (ColorDAG) can achieve that — when it cannot (e.g. Theorem 6
//     instances where χ > π), the full recolor result itself becomes the
//     ceiling and recoloring is suppressed until the incremental state
//     drifts above it.
//
// Mechanics: coloring state is kept per arc as well as per slot. Every
// arc carries a wavelength mask (occ) with bit c set when a live path on
// the arc has wavelength c; a proper coloring uses each wavelength at
// most once per arc, so the colors blocked for a path are the OR of the
// masks along its arcs. A new path is first-fit colored from that OR in
// O(len(path)·⌈λ/64⌉) words, without walking its conflict
// neighbourhood; a removal frees the slot's color and then runs a
// bounded local repair that tries to recolor the highest color classes
// away while they are small; when NumLambda still drifts past the slack,
// a warm-start repack reseeds the coloring from the surviving color
// classes (class-grouped greedy, never more colors than the seed), and
// only when that cannot reach the gate — and, on certified-hard
// instances, only every warmRecolorBudget-th crossing — is the whole
// live family recolored from scratch through ColorDAG, the strongest
// applicable theorem, and the incremental state rebuilt from its
// answer.
type Incremental struct {
	g   *digraph.Digraph
	dyn *conflict.Dynamic

	colors  []int   // slot -> wavelength; -1 = free slot
	classes [][]int // wavelength -> live slots using it (unordered)
	posIn   []int   // slot -> index in classes[colors[slot]]
	numUsed int     // distinct wavelengths in use

	// occ holds the per-arc wavelength masks, words uint64s per arc:
	// bit c of arc a is set when a live slot on a has wavelength c. The
	// width doubles when a color at or above 64·words is assigned.
	occ   []uint64
	words int

	slack         int
	recolorBudget int

	fullRecolors  int
	warmRecolors  int
	warmSinceCold int // warm re-arms of the ceiling since the last cold run
	// futileNum is the NumLambda of the most recent recolor (cold, or a
	// budgeted warm re-arm on an already-certified-hard instance) that
	// could not reach lb+slack; 0 = none. futileLB is the lower bound at
	// that recolor: a drop below it triggers another recolor attempt —
	// warm first, and within the budget the warm answer re-anchors the
	// ceiling at the new lower bound, so the cold pipeline retries only
	// when the budget or the TTL runs out. futileTTL is the number of
	// removals before the ceiling expires outright.
	futileNum int
	futileLB  int
	futileTTL int

	// warm-recolor scratch, reused across recolors.
	warmOrder []int
	warmFrom  []int
	classIdx  []int

	// mutations counts the color changes of slots (setColor, uncolor).
	// idleRepack reports that the last warm repack moved no color, and
	// idleRepackAt is mutations right after it: while the count stands,
	// the live assignment is that repack's fixed point, so another repack
	// would move nothing either (see AddUnderLimit).
	mutations    uint64
	idleRepack   bool
	idleRepackAt uint64

	// cycleCount caches cycles.IndependentCycleCount(g) for the cold
	// recolor, keyed on g's arc and vertex counts, which only grow.
	cycleCount            int
	cycleArcs, cycleVerts int
}

// NewIncremental returns an empty incremental colorer for dipaths of g.
// slack <= 0 selects DefaultSlack.
func NewIncremental(g *digraph.Digraph, slack int) *Incremental {
	if slack <= 0 {
		slack = DefaultSlack
	}
	return &Incremental{
		g:             g,
		dyn:           conflict.NewDynamic(g),
		occ:           make([]uint64, g.NumArcs()),
		words:         1,
		slack:         slack,
		recolorBudget: defaultRecolorBudget,
	}
}

// Dynamic exposes the underlying mutable conflict layer (read-only use).
func (ic *Incremental) Dynamic() *conflict.Dynamic { return ic.dyn }

// GrowArcs extends the conflict layer's arc space and the wavelength
// masks to n arcs (see conflict.Dynamic.GrowArcs). No live path uses a
// new arc, so its mask starts empty and the assignment, the palette and
// the drift ceiling are unaffected.
func (ic *Incremental) GrowArcs(n int) {
	ic.dyn.GrowArcs(n)
	if extra := n*ic.words - len(ic.occ); extra > 0 {
		ic.occ = append(ic.occ, make([]uint64, extra)...)
	}
}

// NumLambda returns the number of distinct wavelengths currently in use.
func (ic *Incremental) NumLambda() int { return ic.numUsed }

// LowerBound returns the incremental χ lower bound (max arc load).
func (ic *Incremental) LowerBound() int { return ic.dyn.LowerBound() }

// FullRecolors returns how many times the slack gate forced a full
// from-scratch recoloring — the measure of how incremental the run was.
func (ic *Incremental) FullRecolors() int { return ic.fullRecolors }

// WarmRecolors returns how many times a drift past the slack gate was
// absorbed by the warm-start repack (reseeding from the surviving color
// classes) without paying the from-scratch pipeline.
func (ic *Incremental) WarmRecolors() int { return ic.warmRecolors }

// Wavelength returns the wavelength of slot s, or -1 when s is free.
func (ic *Incremental) Wavelength(s int) int {
	if s < 0 || s >= len(ic.colors) {
		return -1
	}
	return ic.colors[s]
}

// Add inserts p into the conflict layer, first-fit colors it, and
// returns its slot. A full recolor is triggered only when the number of
// wavelengths drifts past the slack gate.
func (ic *Incremental) Add(p *dipath.Path) (int, error) {
	s, err := ic.dyn.AddPath(p)
	if err != nil {
		return -1, err
	}
	ic.ensureSlot(s)
	ic.setColor(s, ic.firstFit(s, ic.dyn.NumSlots()))
	ic.maybeFullRecolor()
	return s, nil
}

// Remove deletes the dipath in slot s, repairs locally, and recolors
// fully only if the slack gate fires (the lower bound may have dropped).
func (ic *Incremental) Remove(s int) error {
	if s < 0 || s >= len(ic.colors) || ic.colors[s] < 0 {
		return fmt.Errorf("core: slot %d is not colored", s)
	}
	ic.clearColor(s)
	if err := ic.dyn.RemovePath(s); err != nil {
		return err
	}
	ic.localRepair()
	// Removals only ever make the instance easier, so they erode the
	// futile ceiling: after enough of them the from-scratch pipeline is
	// given another chance even if the lower bound has not moved.
	if ic.futileNum > 0 {
		if ic.futileTTL--; ic.futileTTL <= 0 {
			ic.futileNum = 0
		}
	}
	ic.maybeFullRecolor()
	return nil
}

// Colors returns the wavelengths of the given slots, parallel to slots.
func (ic *Incremental) Colors(slots []int) []int {
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = ic.Wavelength(s)
	}
	return out
}

// Snapshot returns every slot's wavelength, -1 for a free slot.
func (ic *Incremental) Snapshot() []int { return slices.Clone(ic.colors) }

// Restore gives every live slot the wavelength it had in colors, a
// Snapshot taken while the same slots held the same dipaths.
func (ic *Incremental) Restore(colors []int) {
	for s, c := range ic.colors {
		if c >= 0 {
			ic.uncolor(s)
		}
	}
	for c := range ic.classes {
		ic.classes[c] = ic.classes[c][:0]
	}
	ic.numUsed = 0
	for s, c := range colors {
		if c >= 0 {
			ic.setColor(s, c)
		}
	}
}

// ensureSlot grows the per-slot tables to cover slot s.
func (ic *Incremental) ensureSlot(s int) {
	for len(ic.colors) <= s {
		ic.colors = append(ic.colors, -1)
		ic.posIn = append(ic.posIn, 0)
	}
}

// firstFit returns the smallest color < limit that no live path on s's
// arcs uses: the lowest zero bit of the OR of their masks. s's own
// color, if any, is in those masks, so a colored s needs
// limit ≤ colors[s] (every caller probes strictly lower colors).
func (ic *Incremental) firstFit(s, limit int) int {
	arcs := ic.dyn.Path(s).Arcs()
	for w := 0; 64*w < limit; w++ {
		var blocked uint64 // stays 0 past the mask width: no color there is used
		if w < ic.words {
			for _, a := range arcs {
				blocked |= ic.occ[int(a)*ic.words+w]
			}
		}
		if blocked != ^uint64(0) {
			if c := 64*w + bits.TrailingZeros64(^blocked); c < limit {
				return c
			}
			return -1
		}
	}
	return -1
}

// markArcs sets (on) or clears wavelength c in the masks of s's arcs.
func (ic *Incremental) markArcs(s, c int, on bool) {
	w, bit := c/64, uint64(1)<<(c%64)
	for _, a := range ic.dyn.Path(s).Arcs() {
		if i := int(a)*ic.words + w; on {
			ic.occ[i] |= bit
		} else {
			ic.occ[i] &^= bit
		}
	}
}

// widen doubles the mask width until color c fits.
func (ic *Incremental) widen(c int) {
	words := ic.words
	for 64*words <= c {
		words *= 2
	}
	arcs := len(ic.occ) / ic.words
	occ := make([]uint64, arcs*words)
	for a := 0; a < arcs; a++ {
		copy(occ[a*words:], ic.occ[a*ic.words:(a+1)*ic.words])
	}
	ic.occ, ic.words = occ, words
}

// uncolor clears colored slot s's bit and marks it uncolored without
// touching its class; the recolor resets rebuild the classes wholesale.
func (ic *Incremental) uncolor(s int) {
	ic.markArcs(s, ic.colors[s], false)
	ic.colors[s] = -1
	ic.mutations++
}

// setColor assigns color c to slot s and updates the class bookkeeping
// and the masks of s's arcs.
func (ic *Incremental) setColor(s, c int) {
	for len(ic.classes) <= c {
		// Regrow over the classes a palette shrink truncated away, so
		// their backing arrays are reused.
		if n := len(ic.classes); n < cap(ic.classes) {
			ic.classes = ic.classes[:n+1]
			ic.classes[n] = ic.classes[n][:0]
		} else {
			ic.classes = append(ic.classes, nil)
		}
	}
	if c >= 64*ic.words {
		ic.widen(c)
	}
	ic.markArcs(s, c, true)
	ic.colors[s] = c
	ic.mutations++
	if len(ic.classes[c]) == 0 {
		ic.numUsed++
	}
	ic.posIn[s] = len(ic.classes[c])
	ic.classes[c] = append(ic.classes[c], s)
}

// clearColor removes slot s from its color class (swap-delete).
func (ic *Incremental) clearColor(s int) {
	c := ic.colors[s]
	class := ic.classes[c]
	i, last := ic.posIn[s], len(class)-1
	class[i] = class[last]
	ic.posIn[class[i]] = i
	ic.classes[c] = class[:last]
	ic.uncolor(s)
	if last == 0 {
		ic.numUsed--
	}
}

// localRepair is the bounded recoloring pass after a removal: while the
// highest wavelength's class has at most recolorBudget members, try to
// first-fit each member into a strictly lower wavelength; a class that
// empties gives the wavelength back. Members that cannot move stay put,
// so the assignment remains proper throughout.
func (ic *Incremental) localRepair() {
	// The removal may have emptied an interior color class; re-densify
	// first (repair moves below only ever drain the top class, so no new
	// interior holes appear afterwards).
	ic.compactPalette()
	for {
		cmax := len(ic.classes) - 1
		for cmax >= 0 && len(ic.classes[cmax]) == 0 {
			cmax--
		}
		ic.classes = ic.classes[:cmax+1]
		if cmax < 1 || len(ic.classes[cmax]) > ic.recolorBudget {
			return
		}
		moved := true
		for len(ic.classes[cmax]) > 0 && moved {
			moved = false
			for _, s := range ic.classes[cmax] {
				if c := ic.firstFit(s, cmax); c >= 0 {
					ic.clearColor(s)
					ic.setColor(s, c)
					moved = true
					break // class slice mutated; restart the scan
				}
			}
		}
		if len(ic.classes[cmax]) > 0 {
			return // stuck members keep the wavelength alive
		}
	}
}

// compactPalette keeps the palette dense (every used wavelength index is
// < NumLambda) by renaming the top color class into the lowest empty
// color. A wholesale relabel is always proper: members of one class are
// pairwise non-adjacent and the target color is used by nobody. Without
// this, a removal that empties an interior class would leave live
// wavelength indices above the reported count, making Feasible checks
// against a channel budget misleading.
func (ic *Incremental) compactPalette() {
	for {
		cmax := len(ic.classes) - 1
		for cmax >= 0 && len(ic.classes[cmax]) == 0 {
			cmax--
		}
		ic.classes = ic.classes[:cmax+1]
		hole := -1
		for c := 0; c < cmax; c++ {
			if len(ic.classes[c]) == 0 {
				hole = c
				break
			}
		}
		if hole < 0 {
			return
		}
		members := append([]int(nil), ic.classes[cmax]...)
		for _, s := range members {
			ic.clearColor(s)
			ic.setColor(s, hole)
		}
	}
}

// maybeFullRecolor enforces the slack gate: when the number of
// wavelengths in use exceeds LowerBound()+slack, fullRecolor runs — a
// warm class-seeded repack first, the from-scratch pipeline when the
// repack cannot certify enough. If even a recolor cannot reach the gate
// (χ > π instances), its answer becomes the ceiling (futileNum) and
// further recolors are suppressed while the ceiling is plausibly still
// current. Three things invalidate it: the incremental state drifting
// above the ceiling, the lower bound dropping below the one recorded at
// the futile attempt (within the warm budget the retry is answered by
// another warm repack that re-anchors the ceiling; past the budget by
// the cold pipeline), and — because χ never increases under removals
// but the other two signals may miss a shrinking family — a TTL of
// removals (a fraction of the family size at the futile recolor), which
// bounds both how stale the ceiling can get and how often a hard
// instance re-pays the full pipeline.
func (ic *Incremental) maybeFullRecolor() {
	lb := ic.dyn.LowerBound()
	if ic.numUsed <= lb+ic.slack {
		ic.futileNum = 0
		return
	}
	// The ceiling carries slack headroom: a futile recolor happens at
	// whatever the churn's current size is, and without headroom the very
	// next arrival would cross the fresh ceiling and recolor again —
	// steady add/remove oscillation on a hard instance would degenerate
	// to rebuild-per-event.
	if ic.futileNum > 0 && ic.numUsed <= ic.futileNum+ic.slack && lb >= ic.futileLB {
		return
	}
	ic.fullRecolor()
}

// warmRecolor re-greedy-colors the live family seeded by the surviving
// color classes: slots are re-colored first-fit in class-grouped order
// (largest class first). Processing a proper coloring class by class,
// greedy provably never uses more colors than the seed — by induction,
// a slot in the i-th processed class sees blocked colors only from the
// first i-1 classes — and in practice packs the palette well below it,
// because every first-fit runs against the full current neighbourhood
// instead of the arrival-order prefix that produced the drift. Cost is
// O(Σ len(path)) mask words over the live family, versus the cold
// pipeline's conflict-graph rebuild plus theorem run, so drifts it
// absorbs cost a repair, not a spike. It records in idleRepack whether
// the repack left every slot's color where it was.
func (ic *Incremental) warmRecolor() {
	if ic.numUsed == 0 {
		ic.idleRepack, ic.idleRepackAt = true, ic.mutations
		return
	}
	// Snapshot the class-grouped order before tearing the classes down.
	ic.classIdx = ic.classIdx[:0]
	for c := range ic.classes {
		if len(ic.classes[c]) > 0 {
			ic.classIdx = append(ic.classIdx, c)
		}
	}
	slices.SortStableFunc(ic.classIdx, func(a, b int) int {
		return len(ic.classes[b]) - len(ic.classes[a])
	})
	ic.warmOrder, ic.warmFrom = ic.warmOrder[:0], ic.warmFrom[:0]
	for _, c := range ic.classIdx {
		ic.warmOrder = append(ic.warmOrder, ic.classes[c]...)
		for range ic.classes[c] {
			ic.warmFrom = append(ic.warmFrom, c)
		}
	}
	limit := ic.numUsed // greedy over class groups is guaranteed to fit
	for _, s := range ic.warmOrder {
		ic.uncolor(s)
	}
	// Truncate the classes in place (warmOrder already snapshotted their
	// members) so setColor refills the existing backing arrays — the
	// repack stays allocation-free.
	for _, c := range ic.classIdx {
		ic.classes[c] = ic.classes[c][:0]
	}
	ic.numUsed = 0
	moved := false
	for i, s := range ic.warmOrder {
		c := ic.firstFit(s, limit)
		ic.setColor(s, c)
		moved = moved || c != ic.warmFrom[i]
	}
	// First-fit leaves no palette holes: a color is used only when every
	// lower one was blocked by an already-colored slot, so density holds
	// without a compaction pass. The warmRecolors counter is maintained
	// by fullRecolor, which alone knows whether this pass absorbed the
	// drift or fell through to the cold pipeline.
	ic.idleRepack, ic.idleRepackAt = !moved, ic.mutations
}

// fullRecolor reassigns every live slot from a from-scratch ColorDAG run
// (falling back to DSATUR from the live family's arc incidence if the
// pipeline errors, which keeps the session alive on adversarial inputs).
func (ic *Incremental) fullRecolor() {
	// Warm start: reseed from the surviving color classes first. When the
	// repack alone brings the count back through the slack gate — or back
	// under a still-plausible futile ceiling — the drift is absorbed for
	// O(Σ len(path)) and the from-scratch pipeline is skipped entirely.
	ic.warmRecolor()
	lb := ic.dyn.LowerBound()
	switch {
	case ic.numUsed <= lb+ic.slack:
		// The repack reached the gate — as good an answer as the pipeline
		// could certify, so it does not count against the staleness budget.
		ic.futileNum = 0
		ic.warmSinceCold = 0
		ic.warmRecolors++
		return
	case ic.futileNum > 0 && lb >= ic.futileLB && ic.numUsed <= ic.futileNum+ic.slack && ic.warmSinceCold < warmRecolorBudget:
		// Back under the standing ceiling on warm work alone; still a
		// warm-only answer, so it spends budget like a re-arm does.
		ic.warmSinceCold++
		ic.warmRecolors++
		return
	case ic.futileNum > 0 && ic.warmSinceCold < warmRecolorBudget:
		// Certified-hard instance (a cold run already failed to reach the
		// gate) whose ceiling the drift escaped: the warm answer is recent
		// enough to stand in for the pipeline — re-arm the ceiling from it
		// (the repack is proper, so χ ≤ numUsed is a genuine certificate)
		// and defer the cold probe. Only the cold pipeline can discover
		// that χ itself dropped, hence the budget. Without a standing
		// ceiling the cold pipeline runs instead: on instances it can
		// color within lb+slack, a warm re-arm here would let λ sit above
		// the from-scratch answer past the slack guarantee.
		ic.warmSinceCold++
		ic.warmRecolors++
		ic.armCeiling(lb)
		return
	}
	ic.coldRecolor()
}

// coldRecolor is the from-scratch tail of fullRecolor: run the
// strongest applicable theorem over the live family and rebuild the
// incremental bookkeeping from its answer. On a graph with internal
// cycles outside Theorem 6 that is DSATUR, read off the family's arc
// incidence in the caller's goroutine (see dsatur), so an engine's
// worker bound also bounds its cold recolors.
func (ic *Incremental) coldRecolor() {
	ic.warmSinceCold = 0
	slots := ic.dyn.LiveSlots()
	fam := make(dipath.Family, len(slots))
	for i, s := range slots {
		fam[i] = ic.dyn.Path(s)
	}
	var colors []int
	// The live paths were validated when conflict.Dynamic admitted them,
	// so the cold run skips the per-call family revalidation too.
	if res, _, err := colorDAGCounted(ic.g, fam, ic.independentCycles()); err == nil {
		colors = res.Colors
	} else {
		colors = dsatur(ic.g, fam)
	}
	// Rebuild the class bookkeeping from the fresh assignment, then
	// re-densify: Theorem 6 colorings can skip indices (a permutation
	// cycle's freed base color may go unused), and the palette-density
	// invariant must hold for Wavelength/Feasible consumers.
	for _, s := range slots {
		ic.uncolor(s)
	}
	ic.classes = ic.classes[:0]
	ic.numUsed = 0
	for i, s := range slots {
		ic.setColor(s, colors[i])
	}
	ic.compactPalette()
	ic.fullRecolors++
	if lb := ic.dyn.LowerBound(); ic.numUsed > lb+ic.slack {
		ic.armCeiling(lb)
	} else {
		ic.futileNum = 0
	}
}

// independentCycles returns cycles.IndependentCycleCount of the
// colorer's graph, recounted only when the graph gained an arc or a
// vertex since the last count.
func (ic *Incremental) independentCycles() int {
	if m, n := ic.g.NumArcs(), ic.g.NumVertices(); m != ic.cycleArcs || n != ic.cycleVerts {
		ic.cycleCount, ic.cycleArcs, ic.cycleVerts = cycles.IndependentCycleCount(ic.g), m, n
	}
	return ic.cycleCount
}

// EnsureAtMost tries to bring the live assignment to at most limit
// wavelengths: the warm class-seeded repack first (O(Σ len(path))), the
// from-scratch pipeline when the repack is not enough. It returns the
// resulting count, which still exceeds limit exactly when even the
// strongest applicable theorem needs more colors. On internal-cycle-
// free graphs the cold pipeline achieves λ = π (Theorem 1), so the call
// is guaranteed to succeed whenever π ≤ limit — the invariant the
// budgeted session's Theorem-1 admission precheck maintains.
func (ic *Incremental) EnsureAtMost(limit int) int {
	if ic.numUsed <= limit {
		return ic.numUsed
	}
	ic.warmRecolor()
	if ic.numUsed <= limit {
		ic.warmRecolors++
		return ic.numUsed
	}
	ic.coldRecolor()
	return ic.numUsed
}

// AddUnderLimit inserts p only when it can take a wavelength below
// limit: first-fit against the live neighbourhood, then — when the
// palette is fragmented — one warm class-seeded repack and a retry.
// On rejection the conflict insertion is rolled back, so no dipath is
// admitted: the live family is exactly as before (the repack may have
// permuted colors, but never onto more wavelengths). The repack is
// skipped when the last one moved no color and no color has moved
// since: the assignment is then the repack's fixed point, so the
// skipped call would have changed nothing. This is the
// general-DAG budget admission probe: unlike the Theorem-1 load test it
// costs up to O(Σ len(path)), but it never disturbs the λ ≤ limit
// invariant of the paths already admitted. limit <= 0 means unlimited
// and behaves like Add.
func (ic *Incremental) AddUnderLimit(p *dipath.Path, limit int) (slot int, ok bool, err error) {
	if limit <= 0 {
		s, err := ic.Add(p)
		return s, err == nil, err
	}
	s, err := ic.dyn.AddPath(p)
	if err != nil {
		return -1, false, err
	}
	ic.ensureSlot(s)
	c := ic.firstFit(s, limit)
	if c < 0 && ic.numUsed > 0 && !(ic.idleRepack && ic.mutations == ic.idleRepackAt) {
		// All limit colors are blocked by neighbours; a repack of the live
		// assignment (s is still uncolored, so it does not participate) may
		// compact the palette enough to free one.
		ic.warmRecolor()
		c = ic.firstFit(s, limit)
	}
	if c < 0 {
		if err := ic.dyn.RemovePath(s); err != nil {
			return -1, false, err
		}
		return -1, false, nil
	}
	ic.setColor(s, c)
	ic.maybeFullRecolor()
	return s, true, nil
}

// armCeiling records the current (proper, hence χ-certifying) count as
// the futile ceiling at lower bound lb, with the removal TTL that
// bounds its staleness.
func (ic *Incremental) armCeiling(lb int) {
	ic.futileNum, ic.futileLB = ic.numUsed, lb
	if ic.futileTTL = ic.dyn.NumLive() / 4; ic.futileTTL < 8 {
		ic.futileTTL = 8
	}
}
