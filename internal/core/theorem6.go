package core

import (
	"fmt"

	"wavedag/internal/conflict"
	"wavedag/internal/cycles"
	"wavedag/internal/dag"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/upp"
)

// ColorOneInternalCycleUPP colors fam with at most ⌈4π/3⌉ wavelengths on
// an UPP-DAG g with exactly one internal cycle — the constructive proof
// of Theorem 6 of the paper.
//
// The algorithm follows the paper:
//
//  1. pick the arc (a,b) of the unique internal cycle with maximum load,
//     and pad the family with copies of the dipath [a,b] until
//     load(a,b) = π;
//  2. split (a,b) into (a,s) and (t,b) (fresh sink s and source t); every
//     dipath through (a,b) splits into a left part [x…a,s] and a right
//     part [t,b…y]. The split graph has no internal cycle, so Theorem 1
//     colors the split family with exactly π wavelengths;
//  3. the left parts all share (a,s) and the right parts all share (t,b),
//     so each side uses each of the π wavelengths exactly once. Following
//     left-color → right-color induces a permutation of the wavelengths
//     whose cycle decomposition C1 ∪ C2 ∪ … drives the re-merge: fixed
//     points keep their color; each longer cycle spends one extra color γ
//     (its first member takes γ, the others their left colors); 2-cycles
//     are paired so two of them share one extra color, and a leftover
//     2-cycle is absorbed into a longer cycle when one exists;
//  4. a non-through dipath whose color now collides with a re-merged
//     through-dipath is repaired with the extra color of the group.
//
// Deviation D1 (see DESIGN.md): the paper treats the through-dipaths as
// having pairwise distinct routes, which its Facts 1–2 rely on; families
// with replicated dipaths — exactly what the Theorem 7 tightness
// construction produces — violate that. We therefore group through-
// dipaths into *bundles* of identical routes and exploit two freedoms the
// paper leaves implicit: (i) within a bundle the pairing between left
// and right parts is arbitrary, so every wavelength whose left part and
// right part belong to the same bundle is made a conflict-free fixed
// point, and (ii) the remaining transitions form an Eulerian multigraph
// over bundles, which always decomposes into *simple* directed cycles, so
// each permutation cycle visits every bundle at most once and the
// uniqueness/disjointness facts apply route-wise again. Any residual
// collision (possible only through same-side route overlaps) is resolved
// by a bounded exact search within the ⌈4π/3⌉ palette.
func ColorOneInternalCycleUPP(g *digraph.Digraph, fam dipath.Family) (*Result, error) {
	if err := fam.Validate(g); err != nil {
		return nil, err
	}
	return colorOneInternalCycleUPP(g, fam)
}

// colorOneInternalCycleUPP is ColorOneInternalCycleUPP for pre-validated
// families (ColorDAG validates once; session-internal families were
// validated at construction).
func colorOneInternalCycleUPP(g *digraph.Digraph, fam dipath.Family) (*Result, error) {
	if !dag.IsDAG(g) {
		return nil, dag.ErrCyclic
	}
	switch n := cycles.IndependentCycleCount(g); {
	case n == 0:
		// Degenerate but legal: Theorem 1 applies directly and is stronger.
		return peelTheorem1(g, fam)
	case n > 1:
		return nil, fmt.Errorf("core: %d independent internal cycles, Theorem 6 needs exactly 1", n)
	}
	if ok, u, v, err := upp.IsUPP(g); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("core: two dipaths from %d to %d: %w", u, v, ErrNotUPP)
	}

	// One incremental tracker answers both load questions (π and the
	// most-loaded cycle arc) in a single pass over the family.
	tracker := load.NewTrackerFromFamily(g, fam)
	pi := tracker.Pi()
	if pi == 0 {
		colors := make([]int, len(fam))
		return newResult(colors, 0), nil
	}

	cyc, ok := cycles.FindInternalCycle(g)
	if !ok {
		return nil, fmt.Errorf("core: internal error: cycle count 1 but no cycle found")
	}
	abArc, abLoad, err := tracker.MaxAmong(cyc.ArcIDs())
	if err != nil {
		return nil, err
	}
	ab := g.Arc(abArc)

	// Step 1: pad with copies of [a,b] so that load(a,b) = π.
	work := fam.Clone()
	pad := dipath.MustFromVertices(g, ab.Tail, ab.Head)
	for i := abLoad; i < pi; i++ {
		work = append(work, pad)
	}

	// Step 2: build the split graph G̃ and the split family.
	sg, arcMap, arcAS, arcTB := splitGraph(g, abArc)
	split, origin, throughs, err := splitFamily(sg, work, abArc, arcMap, arcAS, arcTB)
	if err != nil {
		return nil, err
	}
	if cycles.HasInternalCycle(sg) {
		return nil, fmt.Errorf("core: internal error: split graph still has an internal cycle")
	}
	base, err := ColorNoInternalCycle(sg, split)
	if err != nil {
		return nil, fmt.Errorf("core: coloring split graph: %w", err)
	}
	if base.Pi != pi {
		return nil, fmt.Errorf("core: internal error: split load %d != %d", base.Pi, pi)
	}

	// Step 3 (bundle-aware, deviation D1): group through-dipaths by route.
	bundleOf := map[string]int{}
	var bundleMembers [][]int // bundle -> through indices
	throughBundle := make([]int, len(throughs))
	for ti, th := range throughs {
		key := work[th.work].String()
		b, seen := bundleOf[key]
		if !seen {
			b = len(bundleMembers)
			bundleOf[key] = b
			bundleMembers = append(bundleMembers, nil)
		}
		bundleMembers[b] = append(bundleMembers[b], ti)
		throughBundle[ti] = b
	}
	// Left and right parts each use every wavelength exactly once.
	leftBundle := make([]int, pi)  // color -> bundle owning it on the left
	rightBundle := make([]int, pi) // color -> bundle owning it on the right
	for i := range leftBundle {
		leftBundle[i], rightBundle[i] = -1, -1
	}
	for ti, th := range throughs {
		lc, rc := base.Colors[th.left], base.Colors[th.right]
		if lc < 0 || lc >= pi || rc < 0 || rc >= pi || leftBundle[lc] != -1 || rightBundle[rc] != -1 {
			return nil, fmt.Errorf("core: internal error: split part colors not bijective")
		}
		leftBundle[lc] = throughBundle[ti]
		rightBundle[rc] = throughBundle[ti]
	}

	// Dispense bundle members as finals are decided.
	memberQueue := make([][]int, len(bundleMembers))
	for b := range bundleMembers {
		memberQueue[b] = append([]int(nil), bundleMembers[b]...)
	}
	takeMember := func(b int) (int, error) {
		if len(memberQueue[b]) == 0 {
			return -1, fmt.Errorf("core: internal error: bundle %d exhausted", b)
		}
		ti := memberQueue[b][0]
		memberQueue[b] = memberQueue[b][1:]
		return ti, nil
	}

	finalColors := make([]int, len(work))
	for i := range finalColors {
		finalColors[i] = -1
	}
	// Non-through dipaths keep their split color.
	for si, oi := range origin {
		if oi >= 0 {
			finalColors[oi] = base.Colors[si]
		}
	}

	// Fixed points: wavelengths whose left and right sides live in the
	// same bundle. The merged dipath keeps the wavelength and cannot
	// conflict (no dipath of that color crosses either side of the route).
	for c := 0; c < pi; c++ {
		if leftBundle[c] == rightBundle[c] {
			ti, err := takeMember(leftBundle[c])
			if err != nil {
				return nil, err
			}
			finalColors[throughs[ti].work] = c
		}
	}

	// Remaining wavelengths induce an Eulerian multigraph over bundles:
	// color c is an edge rightBundle(c) -> leftBundle(c). Decompose it
	// into simple cycles so each permutation cycle meets each bundle once.
	colorCycles, err := simpleCycleDecomposition(pi, leftBundle, rightBundle)
	if err != nil {
		return nil, err
	}

	var longCycles, twoCycles [][]int
	for _, cycle := range colorCycles {
		if len(cycle) == 2 {
			twoCycles = append(twoCycles, cycle)
		} else {
			longCycles = append(longCycles, cycle)
		}
	}

	type repairGroup struct {
		gamma   int   // the extra color of the group
		members []int // work indices of re-merged through-dipaths to check
	}
	var groups []repairGroup
	nextExtra := pi
	assignCycle := func(cycle []int, gammaFor0 int) (*repairGroup, error) {
		grp := &repairGroup{gamma: gammaFor0}
		for j, c := range cycle {
			ti, err := takeMember(leftBundle[c])
			if err != nil {
				return nil, err
			}
			wi := throughs[ti].work
			if j == 0 {
				finalColors[wi] = gammaFor0
			} else {
				finalColors[wi] = c
			}
			grp.members = append(grp.members, wi)
		}
		return grp, nil
	}

	// Long cycles: first member takes a fresh γ, the rest their left color.
	var lastLong *repairGroup
	lastLongFreed := -1
	for _, cycle := range longCycles {
		gamma := nextExtra
		nextExtra++
		grp, err := assignCycle(cycle, gamma)
		if err != nil {
			return nil, err
		}
		groups = append(groups, *grp)
		lastLong = &groups[len(groups)-1]
		lastLongFreed = cycle[0]
	}
	// 2-cycles: pair them two by two; each pair shares one extra color.
	for len(twoCycles) >= 2 {
		c1, c2 := twoCycles[0], twoCycles[1]
		twoCycles = twoCycles[2:]
		gamma := nextExtra
		nextExtra++
		grp1, err := assignCycle(c1, gamma)
		if err != nil {
			return nil, err
		}
		// Both members of the second 2-cycle keep their left colors.
		grp := repairGroup{gamma: gamma, members: grp1.members}
		for _, c := range c2 {
			ti, err := takeMember(leftBundle[c])
			if err != nil {
				return nil, err
			}
			wi := throughs[ti].work
			finalColors[wi] = c
			grp.members = append(grp.members, wi)
		}
		groups = append(groups, grp)
	}
	// Leftover single 2-cycle.
	if len(twoCycles) == 1 {
		c := twoCycles[0]
		if lastLong != nil {
			// Absorb into the last long cycle: one member keeps its left
			// color, the other takes the freed first color of that cycle.
			ti1, err := takeMember(leftBundle[c[0]])
			if err != nil {
				return nil, err
			}
			ti2, err := takeMember(leftBundle[c[1]])
			if err != nil {
				return nil, err
			}
			w1, w2 := throughs[ti1].work, throughs[ti2].work
			finalColors[w1] = c[0]
			finalColors[w2] = lastLongFreed
			lastLong.members = append(lastLong.members, w1, w2)
		} else {
			gamma := nextExtra
			nextExtra++
			grp, err := assignCycle(c, gamma)
			if err != nil {
				return nil, err
			}
			groups = append(groups, *grp)
		}
	}

	// Step 4: repairs. First the paper's move — push a colliding
	// non-through dipath onto the group's γ — applied when it stays
	// proper; residual collisions go to a bounded exact search.
	bound := ceilDiv(4*pi, 3)
	if nextExtra > bound {
		return nil, fmt.Errorf("core: internal error: construction spent %d colors, bound ⌈4π/3⌉ = %d", nextExtra, bound)
	}
	inc := dipath.ArcIncidence(g, work)
	isThrough := make([]bool, len(work))
	for _, th := range throughs {
		isThrough[th.work] = true
	}
	conflictsOf := func(qi int) bool {
		for _, a := range work[qi].Arcs() {
			for _, oi := range inc.On(a) {
				if int(oi) != qi && finalColors[oi] == finalColors[qi] {
					return true
				}
			}
		}
		return false
	}
	for _, grp := range groups {
		for _, wi := range grp.members {
			for _, a := range work[wi].Arcs() {
				for _, q := range inc.On(a) {
					qi := int(q)
					if qi == wi || isThrough[qi] || finalColors[qi] != finalColors[wi] {
						continue
					}
					old := finalColors[qi]
					finalColors[qi] = grp.gamma
					if conflictsOf(qi) {
						finalColors[qi] = old // leave for the search below
					}
				}
			}
		}
	}
	if err := repairSearch(work, inc, isThrough, finalColors, bound); err != nil {
		return nil, fmt.Errorf("core: theorem 6 repair: %w", err)
	}

	// Sanity: the merged coloring must be proper and within the bound.
	colors := finalColors[:len(fam)]
	res := newResult(append([]int(nil), colors...), pi)
	if err := Verify(g, fam, res); err != nil {
		return nil, fmt.Errorf("core: internal error: Theorem 6 coloring invalid: %w", err)
	}
	if res.NumColors > bound {
		return nil, fmt.Errorf("core: internal error: used %d colors, bound ⌈4π/3⌉ = %d", res.NumColors, bound)
	}
	return res, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// simpleCycleDecomposition decomposes the transition multigraph — one
// edge rightBundle(c) -> leftBundle(c) per non-fixed wavelength c — into
// simple directed cycles and returns each as its wavelength sequence
// (x_1, …, x_p) where the member of bundle leftBundle(x_j) takes left
// color x_j and hands over to x_{j+1}. The multigraph has equal in- and
// out-degree at every bundle, so the decomposition always exists.
// Walks start from bundles in increasing order and follow transitions in
// color order, so the same input always yields the same cycles.
func simpleCycleDecomposition(pi int, leftBundle, rightBundle []int) ([][]int, error) {
	type edge struct {
		to    int // leftBundle(color)
		color int
		used  bool
	}
	nb := 0
	for c := 0; c < pi; c++ {
		nb = max(nb, leftBundle[c]+1, rightBundle[c]+1)
	}
	out := make([][]*edge, nb) // rightBundle -> outgoing transitions
	remaining := 0
	for c := 0; c < pi; c++ {
		if leftBundle[c] == rightBundle[c] {
			continue // fixed point
		}
		out[rightBundle[c]] = append(out[rightBundle[c]], &edge{to: leftBundle[c], color: c})
		remaining++
	}
	nextUnused := func(b int) *edge {
		for _, e := range out[b] {
			if !e.used {
				return e
			}
		}
		return nil
	}
	var cyclesOut [][]int
	for b := range out {
		for {
			first := nextUnused(b)
			if first == nil {
				break
			}
			// Walk until a bundle repeats, peeling off simple cycles.
			type step struct {
				from int
				e    *edge
			}
			var walk []step
			pos := map[int]int{b: 0}
			cur := b
			e := first
			for {
				e.used = true
				remaining--
				walk = append(walk, step{from: cur, e: e})
				cur = e.to
				if p, seen := pos[cur]; seen {
					// Extract walk[p:] as a simple cycle.
					var colors []int
					for _, s := range walk[p:] {
						colors = append(colors, s.e.color)
					}
					cyclesOut = append(cyclesOut, colors)
					walk = walk[:p]
					// Unmark positions beyond p.
					pos = map[int]int{}
					for i, s := range walk {
						pos[s.from] = i
					}
					if len(walk) == 0 {
						break
					}
					cur = walk[len(walk)-1].e.to
					pos[cur] = len(walk)
					e = nextUnused(cur)
					if e == nil {
						return nil, fmt.Errorf("core: internal error: transition multigraph not Eulerian")
					}
					continue
				}
				pos[cur] = len(walk)
				e = nextUnused(cur)
				if e == nil {
					return nil, fmt.Errorf("core: internal error: transition multigraph not Eulerian")
				}
			}
		}
	}
	if remaining != 0 {
		return nil, fmt.Errorf("core: internal error: %d transitions left undecomposed", remaining)
	}
	// Each cycle's wavelength sequence currently lists the handed-over
	// colors in walk order; the member of leftBundle(x_j) has left color
	// x_j, which is exactly what assignCycle consumes.
	return cyclesOut, nil
}

// through records the split indices of a dipath of the work family that
// traverses the split arc.
type through struct {
	work  int // index in the padded work family
	left  int // index of [x…a,s] in the split family
	right int // index of [t,b…y] in the split family
}

// splitGraph returns G̃: g with arc ab removed and two fresh vertices s
// (new sink, fed by a) and t (new source, feeding b). arcMap maps old arc
// ids to new ones (-1 for ab).
func splitGraph(g *digraph.Digraph, ab digraph.ArcID) (sg *digraph.Digraph, arcMap []digraph.ArcID, arcAS, arcTB digraph.ArcID) {
	sg = digraph.New(0)
	for v := 0; v < g.NumVertices(); v++ {
		sg.AddVertex(g.Label(digraph.Vertex(v)))
	}
	s := sg.AddVertex("s*")
	t := sg.AddVertex("t*")
	arcMap = make([]digraph.ArcID, g.NumArcs())
	for _, a := range g.Arcs() {
		if a.ID == ab {
			arcMap[a.ID] = -1
			continue
		}
		arcMap[a.ID] = sg.MustAddArc(a.Tail, a.Head)
	}
	arcAS = sg.MustAddArc(g.Arc(ab).Tail, s)
	arcTB = sg.MustAddArc(t, g.Arc(ab).Head)
	return sg, arcMap, arcAS, arcTB
}

// splitFamily maps the work family onto the split graph. origin[si] is the
// work index of a non-through split path, or -1 when the split path is a
// left/right part of a through dipath (recorded in throughs instead).
func splitFamily(sg *digraph.Digraph, work dipath.Family, ab digraph.ArcID, arcMap []digraph.ArcID, arcAS, arcTB digraph.ArcID) (dipath.Family, []int, []through, error) {
	var split dipath.Family
	var origin []int
	var throughs []through
	for wi, p := range work {
		j := p.ArcIndex(ab)
		if j < 0 {
			arcs := make([]digraph.ArcID, p.NumArcs())
			for i, a := range p.Arcs() {
				arcs[i] = arcMap[a]
			}
			var np *dipath.Path
			var err error
			if len(arcs) == 0 { // a single-vertex dipath keeps its vertex
				np, err = dipath.FromVertices(sg, p.First())
			} else {
				np, err = dipath.FromArcs(sg, arcs...)
			}
			if err != nil {
				return nil, nil, nil, fmt.Errorf("core: mapping dipath %d: %w", wi, err)
			}
			split = append(split, np)
			origin = append(origin, wi)
			continue
		}
		var leftArcs []digraph.ArcID
		for _, a := range p.Arcs()[:j] {
			leftArcs = append(leftArcs, arcMap[a])
		}
		leftArcs = append(leftArcs, arcAS)
		left, err := dipath.FromArcs(sg, leftArcs...)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: left part of dipath %d: %w", wi, err)
		}
		rightArcs := []digraph.ArcID{arcTB}
		for _, a := range p.Arcs()[j+1:] {
			rightArcs = append(rightArcs, arcMap[a])
		}
		right, err := dipath.FromArcs(sg, rightArcs...)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: right part of dipath %d: %w", wi, err)
		}
		split = append(split, left, right)
		origin = append(origin, -1, -1)
		throughs = append(throughs, through{work: wi, left: len(split) - 2, right: len(split) - 1})
	}
	return split, origin, throughs, nil
}

// repairSearch resolves the remaining color collisions exactly: when any
// non-through dipath still conflicts, ALL non-through dipaths are
// recolored from scratch within the palette [0, bound), keeping the
// through finals fixed. The search runs on the quotient by identical
// routes — each class of replicated dipaths needs a set of
// `multiplicity` colors, adjacent classes get disjoint sets, and colors
// of adjacent through-dipaths are forbidden — which collapses the twin
// symmetry of replicated tightness families (deviation D1 in DESIGN.md).
func repairSearch(work dipath.Family, inc dipath.Incidence, isThrough []bool, finalColors []int, bound int) error {
	conflictFree := true
scan:
	for a := 0; a < inc.NumArcs(); a++ {
		byColor := map[int]bool{}
		for _, qi := range inc.On(digraph.ArcID(a)) {
			if byColor[finalColors[qi]] {
				conflictFree = false
				break scan
			}
			byColor[finalColors[qi]] = true
		}
	}
	if conflictFree {
		return nil
	}
	// Stage 1: quotient solver with through finals fixed. Exact and fast
	// when the non-through dipaths form few route classes (the replicated
	// tightness families), where per-path search would drown in symmetry.
	if repairQuotient(work, inc, func(qi int) bool { return !isThrough[qi] }, finalColors, bound, 12) {
		return nil
	}
	// Stage 2: per-path DSATUR-backtracking completion with through
	// finals fixed — effective on heterogeneous workloads.
	cg := conflict.NewGraph(len(work))
	for a := 0; a < inc.NumArcs(); a++ {
		paths := inc.On(digraph.ArcID(a))
		for i := 0; i < len(paths); i++ {
			for j := i + 1; j < len(paths); j++ {
				if err := cg.AddEdge(int(paths[i]), int(paths[j])); err != nil {
					return err
				}
			}
		}
	}
	partial := make([]int, len(work))
	for qi := range work {
		if isThrough[qi] {
			partial[qi] = finalColors[qi]
		} else {
			partial[qi] = -1
		}
	}
	if colors, ok := cg.CompleteColoring(partial, bound); ok {
		copy(finalColors, colors)
		return nil
	}
	// Stage 3: the construction's finals were not completable at all
	// (non-through dipaths can interact with whole bundles). The theorem
	// guarantees some coloring within the bound exists; find one with the
	// through finals free as well.
	if repairQuotient(work, inc, func(int) bool { return true }, finalColors, bound, 12) {
		return nil
	}
	if colors, err := cg.OptimalColoring(); err == nil && conflict.CountColors(colors) <= bound {
		copy(finalColors, colors)
		return nil
	}
	return fmt.Errorf("no proper recoloring within %d colors found", bound)
}

// repairQuotient recolors the dipaths selected by movable using the
// class-quotient search, treating every other dipath's color as fixed.
// It reports whether a proper assignment within [0, bound) was found and
// applied. The search is attempted only when the movable dipaths form at
// most maxClasses route classes — the regime the group/pattern solver is
// built for.
func repairQuotient(work dipath.Family, inc dipath.Incidence, movable func(int) bool, finalColors []int, bound, maxClasses int) bool {
	classIdx := map[string]int{}
	var members [][]int
	classOf := make([]int, len(work))
	for qi := range work {
		classOf[qi] = -1
		if !movable(qi) {
			continue
		}
		key := work[qi].String()
		ci, ok := classIdx[key]
		if !ok {
			ci = len(members)
			classIdx[key] = ci
			members = append(members, nil)
		}
		members[ci] = append(members[ci], qi)
		classOf[qi] = ci
	}
	nClasses := len(members)
	if nClasses == 0 || nClasses > maxClasses {
		return false
	}
	forbidden := make([]map[int]bool, nClasses)
	adj := make([]map[int]bool, nClasses)
	for ci := range forbidden {
		forbidden[ci] = map[int]bool{}
		adj[ci] = map[int]bool{}
	}
	for a := 0; a < inc.NumArcs(); a++ {
		paths := inc.On(digraph.ArcID(a))
		for i := 0; i < len(paths); i++ {
			for j := i + 1; j < len(paths); j++ {
				p, q := paths[i], paths[j]
				cp, cq := classOf[p], classOf[q]
				switch {
				case cp >= 0 && cq >= 0 && cp != cq:
					adj[cp][cq] = true
					adj[cq][cp] = true
				case cp >= 0 && cq < 0:
					forbidden[cp][finalColors[q]] = true
				case cq >= 0 && cp < 0:
					forbidden[cq][finalColors[p]] = true
				}
			}
		}
	}
	assigned := make([][]int, nClasses)
	if !assignClasses(members, forbidden, adj, assigned, bound) {
		return false
	}
	for ci, colors := range assigned {
		for k, qi := range members[ci] {
			finalColors[qi] = colors[k]
		}
	}
	return true
}

// assignClasses solves the class set-coloring exactly by searching over
// (color group, pattern) counts rather than individual colors:
//
//   - colors with the same forbidden-signature are interchangeable, so
//     they form groups (through finals sharing a neighbourhood collapse
//     into one group, fresh extras into another);
//   - within a group, a color may serve any independent set of allowed
//     classes, and serving a maximal one is never worse, so the choice
//     per group reduces to "how many of its colors use each maximal
//     pattern" — a tiny integer distribution problem.
//
// This collapses both the color symmetry and the member symmetry of
// replicated families; the search is depth-first over groups with a
// coverage-feasibility bound.
func assignClasses(members [][]int, forbidden, adj []map[int]bool, assigned [][]int, bound int) bool {
	n := len(members)
	demand := make([]int, n)
	for i := range members {
		demand[i] = len(members[i])
	}
	// Group colors by forbidden-signature.
	sigOf := func(col int) string {
		s := make([]byte, n)
		for ci := 0; ci < n; ci++ {
			if forbidden[ci][col] {
				s[ci] = '1'
			} else {
				s[ci] = '0'
			}
		}
		return string(s)
	}
	groupIdx := map[string]int{}
	var groupColors [][]int
	var groupAllowed [][]bool // group -> class -> usable
	for col := 0; col < bound; col++ {
		sig := sigOf(col)
		gi, ok := groupIdx[sig]
		if !ok {
			gi = len(groupColors)
			groupIdx[sig] = gi
			groupColors = append(groupColors, nil)
			allowed := make([]bool, n)
			for ci := 0; ci < n; ci++ {
				allowed[ci] = sig[ci] == '0'
			}
			groupAllowed = append(groupAllowed, allowed)
		}
		groupColors[gi] = append(groupColors[gi], col)
	}
	// Maximal independent patterns per group.
	patterns := make([][][]int, len(groupColors))
	for gi := range groupColors {
		patterns[gi] = maximalIndependentSets(n, adj, groupAllowed[gi])
	}
	// maxServe[gi][ci]: 1 when some pattern of the group serves the class.
	maxServe := make([][]int, len(groupColors))
	for gi := range patterns {
		maxServe[gi] = make([]int, n)
		for _, p := range patterns[gi] {
			for _, ci := range p {
				maxServe[gi][ci] = 1
			}
		}
	}
	remaining := append([]int(nil), demand...)
	// chosen[gi] = pattern counts for group gi.
	chosen := make([][]int, len(groupColors))
	var nodes int
	const nodeCap = 4000000

	// future[gi][ci] = total coverage classes ci can still receive from
	// groups gi.. onward (for pruning).
	future := make([][]int, len(groupColors)+1)
	future[len(groupColors)] = make([]int, n)
	for gi := len(groupColors) - 1; gi >= 0; gi-- {
		future[gi] = make([]int, n)
		for ci := 0; ci < n; ci++ {
			future[gi][ci] = future[gi+1][ci] + maxServe[gi][ci]*len(groupColors[gi])
		}
	}

	var solveGroup func(gi int) bool
	solveGroup = func(gi int) bool {
		if nodes++; nodes > nodeCap {
			return false
		}
		if gi == len(groupColors) {
			for ci := 0; ci < n; ci++ {
				if remaining[ci] > 0 {
					return false
				}
			}
			return true
		}
		for ci := 0; ci < n; ci++ {
			if remaining[ci] > future[gi][ci] {
				return false // cannot be covered any more
			}
		}
		pats := patterns[gi]
		counts := make([]int, len(pats))
		budget := len(groupColors[gi])
		// Distribute budget colors over patterns (stars and bars DFS).
		var distribute func(pi, left int) bool
		distribute = func(pi, left int) bool {
			if nodes++; nodes > nodeCap {
				return false
			}
			if pi == len(pats) {
				if ok := solveGroup(gi + 1); ok {
					chosen[gi] = append([]int(nil), counts...)
					return true
				}
				return false
			}
			// Try the largest useful count first: patterns serving hot
			// classes get filled greedily, which matches the structure of
			// tight instances.
			maxUseful := left
			for k := maxUseful; k >= 0; k-- {
				counts[pi] = k
				for _, ci := range pats[pi] {
					remaining[ci] -= k
				}
				if distribute(pi+1, left-k) {
					return true
				}
				for _, ci := range pats[pi] {
					remaining[ci] += k
				}
				counts[pi] = 0
			}
			return false
		}
		return distribute(0, budget)
	}
	if !solveGroup(0) {
		return false
	}
	// Materialise: walk groups, deal colors to patterns, patterns to
	// classes; each class keeps the first `demand` colors it receives.
	sets := make([][]int, n)
	for gi, counts := range chosen {
		next := 0
		for pi, k := range counts {
			for t := 0; t < k; t++ {
				col := groupColors[gi][next]
				next++
				for _, ci := range patterns[gi][pi] {
					if len(sets[ci]) < demand[ci] {
						sets[ci] = append(sets[ci], col)
					}
				}
			}
		}
	}
	for ci := 0; ci < n; ci++ {
		if len(sets[ci]) < demand[ci] {
			return false // cannot happen if the search accounting is right
		}
		assigned[ci] = sets[ci]
	}
	return true
}

// maximalIndependentSets enumerates the maximal independent sets of the
// class quotient graph restricted to the allowed classes — equivalently
// the maximal cliques of the complement — via Bron–Kerbosch with
// pivoting (output-sensitive). The output is capped at 4096 sets; hitting
// the cap makes the downstream search incomplete but still sound.
func maximalIndependentSets(n int, adj []map[int]bool, allowed []bool) [][]int {
	var verts []int
	for ci := 0; ci < n; ci++ {
		if allowed[ci] {
			verts = append(verts, ci)
		}
	}
	// Complement adjacency (non-adjacency in the quotient) restricted to
	// the allowed vertices.
	conn := func(u, v int) bool { return u != v && !adj[u][v] }
	const cap = 4096
	var out [][]int
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(out) >= cap {
			return
		}
		if len(p) == 0 && len(x) == 0 {
			out = append(out, append([]int(nil), r...))
			return
		}
		// Pivot: vertex of p ∪ x with most complement-neighbours in p.
		pivot, best := -1, -1
		for _, cand := range [][]int{p, x} {
			for _, u := range cand {
				c := 0
				for _, v := range p {
					if conn(u, v) {
						c++
					}
				}
				if c > best {
					pivot, best = u, c
				}
			}
		}
		var candidates []int
		for _, v := range p {
			if pivot < 0 || !conn(pivot, v) {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []int
			for _, u := range p {
				if conn(v, u) {
					np = append(np, u)
				}
			}
			for _, u := range x {
				if conn(v, u) {
					nx = append(nx, u)
				}
			}
			bk(append(r, v), np, nx)
			// Move v from p to x.
			for i, u := range p {
				if u == v {
					p = append(p[:i:i], p[i+1:]...)
					break
				}
			}
			x = append(x, v)
		}
	}
	bk(nil, verts, nil)
	return out
}
