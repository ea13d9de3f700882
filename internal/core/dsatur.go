package core

import (
	"math/bits"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// dsatur colors fam with the DSATUR heuristic read off the family's arc
// incidence: the colors equal conflict.FromFamily(g, fam).DSATURColoring()
// exactly, without the n×n conflict matrix and in the caller's
// goroutine.
//
// The dense version colors each conflict component on its own, with the
// component's vertices numbered in ascending family index, and picks the
// next vertex by (saturation desc, degree desc, index asc). A component's
// picks depend only on its own vertices, whose saturation no other
// component moves, and index order within a component is family order.
// So one run over the whole family, picking by the same key, colors
// every component as the dense version does. The dense version solves
// components with the same local adjacency once and shares the colors,
// which changes nothing, since its key is that exact adjacency.
//
// Degree counts the distinct paths that share an arc, deduplicated with
// a stamp. Degree and index are fixed, so they rank the paths once;
// the uncolored paths sit in one rank bitset per saturation level, and
// the next pick is the lowest rank of the highest non-empty level. A
// newly colored path sets its color in the saturation masks of the
// paths on its arcs, and each path it saturates further moves up one
// level in O(1). The cost is O(Σ load(a)²) for the incidence walks plus
// the bitset scans of the picks, against the dense version's n×n matrix
// and O(n) scan per pick.
func dsatur(g *digraph.Digraph, fam dipath.Family) []int {
	n := len(fam)
	colors := make([]int, n)
	if n == 0 {
		return colors
	}
	inc := dipath.ArcIncidence(g, fam)
	deg := make([]int32, n)
	stamp := make([]int32, n) // stamp[u] = v+1 once u is counted for v
	maxDeg := int32(0)
	for v, p := range fam {
		colors[v] = -1
		for _, a := range p.Arcs() {
			for _, u := range inc.On(a) {
				if int(u) != v && stamp[u] != int32(v)+1 {
					stamp[u] = int32(v) + 1
					deg[v]++
				}
			}
		}
		maxDeg = max(maxDeg, deg[v])
	}
	// rank orders the paths by degree desc, then index asc (a counting
	// sort over degrees); byRank inverts it.
	start := make([]int32, maxDeg+2)
	for _, d := range deg {
		start[maxDeg-d+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	rank, byRank := stamp, make([]int32, n) // the stamps are spent
	for v, d := range deg {
		r := start[maxDeg-d]
		start[maxDeg-d]++
		rank[v], byRank[r] = r, int32(v)
	}
	// A path's color is at most its degree, so colors 0..maxDeg cover
	// every saturation bit.
	satWords := int(maxDeg)/64 + 1
	sat := make([]uint64, n*satWords)
	satCount := make([]int32, n)
	lv := satLevels{words: (n + 63) / 64}
	for r := 0; r < n; r++ {
		lv.add(0, int32(r))
	}
	for k := 0; k < n; k++ {
		v := int(byRank[lv.popTop()])
		row := sat[v*satWords : (v+1)*satWords]
		c := 0
		for w, word := range row {
			if word != ^uint64(0) {
				c = 64*w + bits.TrailingZeros64(^word)
				break
			}
		}
		colors[v] = c
		wi, bit := c/64, uint64(1)<<(c%64)
		for _, a := range fam[v].Arcs() {
			for _, u := range inc.On(a) {
				if colors[u] >= 0 {
					continue
				}
				if m := &sat[int(u)*satWords+wi]; *m&bit == 0 {
					*m |= bit
					lv.remove(satCount[u], rank[u])
					satCount[u]++
					lv.add(satCount[u], rank[u])
				}
			}
		}
	}
	return colors
}

// satLevels holds dsatur's uncolored paths by rank, one bitset per
// saturation level, with each level's count and a word index below
// which the level has no bit.
type satLevels struct {
	words int
	rows  [][]uint64
	count []int32
	low   []int32
	top   int32 // no level above top has a bit
}

// add puts rank r on level s, growing the levels up to s.
func (l *satLevels) add(s, r int32) {
	for int(s) >= len(l.rows) {
		l.rows = append(l.rows, make([]uint64, l.words))
		l.count = append(l.count, 0)
		l.low = append(l.low, int32(l.words))
	}
	l.rows[s][r/64] |= 1 << (r % 64)
	l.count[s]++
	l.low[s] = min(l.low[s], r/64)
	l.top = max(l.top, s)
}

// remove takes rank r off level s.
func (l *satLevels) remove(s, r int32) {
	l.rows[s][r/64] &^= 1 << (r % 64)
	l.count[s]--
}

// popTop removes and returns the lowest rank of the highest non-empty
// level; some level must be non-empty.
func (l *satLevels) popTop() int32 {
	for l.count[l.top] == 0 {
		l.top--
	}
	row, w := l.rows[l.top], l.low[l.top]
	for row[w] == 0 {
		w++
	}
	l.low[l.top] = w
	r := w*64 + int32(bits.TrailingZeros64(row[w]))
	l.remove(l.top, r)
	return r
}
