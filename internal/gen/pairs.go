package gen

import (
	"math/bits"
	"sort"

	"wavedag/internal/digraph"
)

// bitRows is an n-row bit matrix over vertex columns, one run of words
// per row.
type bitRows struct {
	n, words int
	bits     []uint64
}

func newBitRows(n int) bitRows {
	words := (n + 63) / 64
	return bitRows{n: n, words: words, bits: make([]uint64, n*words)}
}

func (r bitRows) row(u int) []uint64 {
	return r.bits[u*r.words : (u+1)*r.words : (u+1)*r.words]
}

func setBit(row []uint64, v digraph.Vertex) { row[v>>6] |= 1 << (v & 63) }

func hasBit(row []uint64, v digraph.Vertex) bool { return row[v>>6]&(1<<(v&63)) != 0 }

func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// pairSet is a set of vertex pairs (u, v): row u of the matrix holds the
// v of u's pairs, and prefix[u] counts the pairs of the rows before u
// (prefix[n] counts them all). The pairs are numbered in (u, v) order,
// as in a list sorted by source and then destination, so a pool draws
// the same pairs from either for the same seed. The k-th pair is found
// by a binary search over the counts and a bit select in one row,
// without listing the pairs.
type pairSet struct {
	bitRows
	prefix []int
}

// count fills the prefix counts from the rows.
func (s *pairSet) count() {
	s.prefix = make([]int, s.n+1)
	for u := 0; u < s.n; u++ {
		c := 0
		for _, w := range s.row(u) {
			c += bits.OnesCount64(w)
		}
		s.prefix[u+1] = s.prefix[u] + c
	}
}

func (s *pairSet) len() int { return s.prefix[s.n] }

// at returns the k-th pair in (u, v) order, for 0 <= k < len().
func (s *pairSet) at(k int) [2]digraph.Vertex {
	u := sort.Search(s.n, func(u int) bool { return s.prefix[u+1] > k })
	k -= s.prefix[u]
	for i, w := range s.row(u) {
		if c := bits.OnesCount64(w); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1
		}
		return [2]digraph.Vertex{digraph.Vertex(u), digraph.Vertex(i*64 + bits.TrailingZeros64(w))}
	}
	panic("gen: pair index out of range")
}

// intersect returns the pairs (u, v) of s with v in mask(u); a nil mask
// drops all of u's pairs.
func (s *pairSet) intersect(mask func(u int) []uint64) *pairSet {
	out := &pairSet{bitRows: newBitRows(s.n)}
	for u := 0; u < s.n; u++ {
		if m := mask(u); m != nil {
			dst := out.row(u)
			for i, w := range s.row(u) {
				dst[i] = w & m[i]
			}
		}
	}
	out.count()
	return out
}

// minus returns the pairs of s that are not in t.
func (s *pairSet) minus(t *pairSet) *pairSet {
	out := &pairSet{bitRows: newBitRows(s.n)}
	for i, w := range s.bits {
		out.bits[i] = w &^ t.bits[i]
	}
	out.count()
	return out
}

// reachablePairs returns the routable pairs of g: every (u, v) with
// v != u and a dipath from u to v over g's arcs, failed ones included.
//
// A vertex that reaches no directed cycle gets its row as the union of
// its heads and their rows, sinks first, in O(m·n/64) for the whole
// set. A vertex that reaches a cycle (none do in a DAG) gets its row by
// a search that stops at the vertices already done and takes their
// rows whole.
func reachablePairs(g *digraph.Digraph) *pairSet {
	n := g.NumVertices()
	s := &pairSet{bitRows: newBitRows(n)}
	// outLeft[v] counts v's out-arcs whose head is not done yet: v is
	// done, its row complete, once it drops to 0.
	outLeft := make([]int, n)
	queue := make([]digraph.Vertex, 0, n)
	for v := range outLeft {
		if outLeft[v] = g.OutDegree(digraph.Vertex(v)); outLeft[v] == 0 {
			queue = append(queue, digraph.Vertex(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		row := s.row(int(u))
		for _, a := range g.OutArcs(u) {
			h := g.Arc(a).Head
			setBit(row, h)
			orInto(row, s.row(int(h)))
		}
		for _, a := range g.InArcs(u) {
			t := g.Arc(a).Tail
			if outLeft[t]--; outLeft[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	for u := range outLeft {
		if outLeft[u] == 0 {
			continue
		}
		src := digraph.Vertex(u)
		row := s.row(u)
		setBit(row, src)
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			for _, a := range g.OutArcs(queue[head]) {
				h := g.Arc(a).Head
				if hasBit(row, h) {
					continue
				}
				setBit(row, h)
				if outLeft[h] == 0 {
					orInto(row, s.row(int(h)))
				} else {
					queue = append(queue, h)
				}
			}
		}
		row[src>>6] &^= 1 << (src & 63)
	}
	s.count()
	return s
}
