// Package conflict builds and analyses conflict graphs of dipath families.
//
// The conflict graph of (G, P) has one vertex per dipath of P, two
// vertices adjacent exactly when the dipaths share an arc. The minimum
// number of wavelengths w(G,P) is the chromatic number χ of this graph,
// and the load π(G,P) is sandwiched between nothing and the clique number
// ω (π ≤ w always; π = ω for UPP-DAGs, Property 3 of the paper).
//
// The package supplies the combinatorial baselines the experiments
// compare against: greedy and DSATUR heuristics, exact χ and ω by
// branch-and-bound, independence number, and the K_{2,3} test of
// Corollary 5.
package conflict

import (
	"fmt"
	"math/bits"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// Graph is a simple undirected graph on vertices 0..n-1 stored as an
// adjacency matrix of bitset rows; n is the number of dipaths in typical
// use, so the quadratic footprint is the right trade-off for the O(1)
// adjacency tests the solvers hammer on.
type Graph struct {
	n    int
	rows []row // rows[v] = neighbourhood bitset of v
	deg  []int
}

type row []uint64

func newRow(n int) row { return make(row, (n+63)/64) }

func (r row) set(i int)      { r[i/64] |= 1 << (uint(i) % 64) }
func (r row) clear(i int)    { r[i/64] &^= 1 << (uint(i) % 64) }
func (r row) get(i int) bool { return r[i/64]&(1<<(uint(i)%64)) != 0 }

// copyFrom overwrites r with src; the rows must have equal length.
func (r row) copyFrom(src row) { copy(r, src) }

// intersectInto sets r = a ∧ b.
func (r row) intersectInto(a, b row) {
	for w := range r {
		r[w] = a[w] & b[w]
	}
}

// subtractInto sets r = a &^ b (a minus b).
func (r row) subtractInto(a, b row) {
	for w := range r {
		r[w] = a[w] &^ b[w]
	}
}

// zero clears every bit.
func (r row) zero() {
	for w := range r {
		r[w] = 0
	}
}

// empty reports whether no bit is set.
func (r row) empty() bool {
	for _, w := range r {
		if w != 0 {
			return false
		}
	}
	return true
}

// popcount returns the number of set bits.
func (r row) popcount() int {
	total := 0
	for _, w := range r {
		total += bits.OnesCount64(w)
	}
	return total
}

// firstSet returns the index of the lowest set bit, or -1 when empty.
func (r row) firstSet() int {
	for wi, w := range r {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// forEach calls f on every set bit index in increasing order. It is the
// allocation-free replacement for materialising neighbour slices in the
// solvers' inner loops.
func (r row) forEach(f func(i int)) {
	for wi, w := range r {
		base := wi * 64
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// NewGraph returns an edgeless undirected graph with n vertices. All
// adjacency rows share one backing array, so construction costs three
// allocations regardless of n.
func NewGraph(n int) *Graph {
	g := &Graph{n: n, rows: make([]row, n), deg: make([]int, n)}
	words := (n + 63) / 64
	backing := make(row, n*words)
	for i := range g.rows {
		g.rows[i] = backing[i*words : (i+1)*words]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}; self-loops are rejected and
// re-inserting an existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("conflict: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("conflict: self-loop at %d", u)
	}
	if g.rows[u].get(v) {
		return nil
	}
	g.rows[u].set(v)
	g.rows[v].set(u)
	g.deg[u]++
	g.deg[v]++
	return nil
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	return g.rows[u].get(v)
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.deg[v] }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, d := range g.deg {
		total += d
	}
	return total / 2
}

// Neighbors returns the neighbours of v in increasing order. It allocates
// a fresh slice per call; hot paths should prefer ForEachNeighbor.
func (g *Graph) Neighbors(v int) []int {
	ns := make([]int, 0, g.deg[v])
	g.rows[v].forEach(func(u int) { ns = append(ns, u) })
	return ns
}

// ForEachNeighbor calls f on every neighbour of v in increasing order
// without allocating. It is the iteration primitive of every solver in
// this package.
func (g *Graph) ForEachNeighbor(v int, f func(u int)) {
	g.rows[v].forEach(f)
}

// Complement returns the complement graph.
func (g *Graph) Complement() *Graph {
	c := NewGraph(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.rows[u].get(v) {
				if err := c.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return c
}

// FromFamily builds the conflict graph of the family f over g: vertices
// are family indices, edges join arc-sharing dipaths.
func FromFamily(g *digraph.Digraph, f dipath.Family) *Graph {
	cg := NewGraph(len(f))
	// Bucket paths by arc so construction is output-sensitive rather than
	// all-pairs-times-length.
	inc := dipath.ArcIncidence(g, f)
	for a := 0; a < inc.NumArcs(); a++ {
		paths := inc.On(digraph.ArcID(a))
		for i := 0; i < len(paths); i++ {
			pi := int(paths[i])
			for j := i + 1; j < len(paths); j++ {
				// Inlined AddEdge (this pairwise loop is the construction
				// hot path): indices come from the family, so only the
				// self-loop guard can fire — a dipath listed twice on one
				// arc, which AddEdge used to reject loudly.
				pj := int(paths[j])
				if pi == pj {
					panic(fmt.Sprintf("conflict: dipath %d traverses arc %d twice", pi, a))
				}
				if !cg.rows[pi].get(pj) {
					cg.rows[pi].set(pj)
					cg.rows[pj].set(pi)
					cg.deg[pi]++
					cg.deg[pj]++
				}
			}
		}
	}
	return cg
}

// IsCycle reports whether g is a single cycle C_n (connected, 2-regular,
// n >= 3) — the shape of the conflict graphs of Figures 3 and 5.
func (g *Graph) IsCycle() bool {
	if g.n < 3 {
		return false
	}
	for v := 0; v < g.n; v++ {
		if g.deg[v] != 2 {
			return false
		}
	}
	// Connectivity: walk from 0.
	seen := make([]bool, g.n)
	stack := make([]int, 1, g.n)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.rows[v].forEach(func(u int) {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		})
	}
	return count == g.n
}

// IsComplete reports whether g is the complete graph K_n.
func (g *Graph) IsComplete() bool {
	for v := 0; v < g.n; v++ {
		if g.deg[v] != g.n-1 {
			return false
		}
	}
	return true
}

// FindK23 searches for an induced K_{2,3}: two non-adjacent vertices
// u1,u2 and three pairwise non-adjacent vertices w1,w2,w3, with every u
// adjacent to every w. Corollary 5 of the paper states conflict graphs of
// UPP-DAGs contain none (its proof takes the three dipaths of the 3-side
// pairwise disjoint and the two dipaths of the 2-side disjoint, i.e. the
// five vertices induce exactly K_{2,3}). It returns the five vertices
// (2-side first) when found.
func (g *Graph) FindK23() ([2]int, [3]int, bool) {
	for u1 := 0; u1 < g.n; u1++ {
		for u2 := u1 + 1; u2 < g.n; u2++ {
			if g.rows[u1].get(u2) {
				continue
			}
			var common []int
			for w := 0; w < g.n; w++ {
				if w == u1 || w == u2 {
					continue
				}
				if g.rows[u1].get(w) && g.rows[u2].get(w) {
					common = append(common, w)
				}
			}
			// Need 3 pairwise non-adjacent common neighbours.
			for i := 0; i < len(common); i++ {
				for j := i + 1; j < len(common); j++ {
					if g.rows[common[i]].get(common[j]) {
						continue
					}
					for k := j + 1; k < len(common); k++ {
						if g.rows[common[i]].get(common[k]) || g.rows[common[j]].get(common[k]) {
							continue
						}
						return [2]int{u1, u2}, [3]int{common[i], common[j], common[k]}, true
					}
				}
			}
		}
	}
	return [2]int{}, [3]int{}, false
}
