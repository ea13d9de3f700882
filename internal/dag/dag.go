// Package dag provides acyclicity checking and standard DAG machinery
// (topological order, reachability, transitive closure, longest paths)
// on top of the digraph substrate.
package dag

import (
	"errors"

	"wavedag/internal/digraph"
)

// ErrCyclic is returned when an operation requiring a DAG is applied to a
// digraph containing a directed cycle.
var ErrCyclic = errors.New("dag: digraph contains a directed cycle")

// TopoSort returns a topological order of the vertices of g (Kahn's
// algorithm). It returns ErrCyclic when g has a directed cycle.
// The order is deterministic: among ready vertices the smallest
// identifier is taken first.
func TopoSort(g *digraph.Digraph) ([]digraph.Vertex, error) {
	n := g.NumVertices()
	indeg := make([]int32, n)
	// Min-heap on vertex id for determinism; n is small enough that a
	// simple binary heap is ideal.
	heap := make([]digraph.Vertex, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] = int32(g.InDegree(digraph.Vertex(v))); indeg[v] == 0 {
			heap = append(heap, digraph.Vertex(v)) // increasing: already a heap
		}
	}
	order := make([]digraph.Vertex, 0, n)
	for len(heap) > 0 {
		v := heap[0]
		order = append(order, v)
		// Pop: sift the last entry down from the root.
		last := len(heap) - 1
		x := heap[last]
		heap = heap[:last]
		if last > 0 {
			i := 0
			for {
				c := 2*i + 1
				if c >= last {
					break
				}
				if c+1 < last && heap[c+1] < heap[c] {
					c++
				}
				if x <= heap[c] {
					break
				}
				heap[i] = heap[c]
				i = c
			}
			heap[i] = x
		}
		for _, a := range g.OutArcs(v) {
			h := g.Arc(a).Head
			if indeg[h]--; indeg[h] != 0 {
				continue
			}
			// Push: sift h up from a new leaf.
			i := len(heap)
			heap = append(heap, h)
			for i > 0 {
				p := (i - 1) / 2
				if heap[p] <= h {
					break
				}
				heap[i] = heap[p]
				i = p
			}
			heap[i] = h
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// IsDAG reports whether g has no directed cycle.
func IsDAG(g *digraph.Digraph) bool {
	_, err := TopoSort(g)
	return err == nil
}

// TopoIndex returns position[v] = rank of v in a topological order of g.
func TopoIndex(g *digraph.Digraph) ([]int, error) {
	order, err := TopoSort(g)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	return pos, nil
}

// Levels returns level[v] = length (in arcs) of the longest dipath ending
// at v. Sources have level 0.
func Levels(g *digraph.Digraph) ([]int, error) {
	order, err := TopoSort(g)
	if err != nil {
		return nil, err
	}
	level := make([]int, g.NumVertices())
	for _, v := range order {
		for _, a := range g.OutArcs(v) {
			h := g.Arc(a).Head
			if level[v]+1 > level[h] {
				level[h] = level[v] + 1
			}
		}
	}
	return level, nil
}

// LongestPathLen returns the number of arcs on a longest dipath of g.
func LongestPathLen(g *digraph.Digraph) (int, error) {
	levels, err := Levels(g)
	if err != nil {
		return 0, err
	}
	best := 0
	for _, l := range levels {
		if l > best {
			best = l
		}
	}
	return best, nil
}

// BitSet is a fixed-capacity bit set used for reachability rows.
type BitSet []uint64

// NewBitSet returns a bit set able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (b BitSet) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b BitSet) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Or merges other into b (b |= other).
func (b BitSet) Or(other BitSet) {
	for i := range b {
		b[i] |= other[i]
	}
}

// Count returns the number of set bits.
func (b BitSet) Count() int {
	c := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// TransitiveClosure returns reach, where reach[u].Get(v) reports whether
// there is a dipath (possibly empty) from u to v. Every vertex reaches
// itself.
func TransitiveClosure(g *digraph.Digraph) ([]BitSet, error) {
	order, err := TopoSort(g)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	reach := make([]BitSet, n)
	for v := 0; v < n; v++ {
		reach[v] = NewBitSet(n)
		reach[v].Set(v)
	}
	// Process in reverse topological order so successors are complete.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		for _, a := range g.OutArcs(v) {
			reach[v].Or(reach[g.Arc(a).Head])
		}
	}
	return reach, nil
}

// ReachableFrom returns the set of vertices reachable from start
// (including start itself) by BFS.
func ReachableFrom(g *digraph.Digraph, start digraph.Vertex) BitSet {
	n := g.NumVertices()
	seen := NewBitSet(n)
	seen.Set(int(start))
	queue := []digraph.Vertex{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.OutArcs(v) {
			h := g.Arc(a).Head
			if !seen.Get(int(h)) {
				seen.Set(int(h))
				queue = append(queue, h)
			}
		}
	}
	return seen
}

// CoReachableTo returns the set of vertices from which end is reachable
// (including end itself).
func CoReachableTo(g *digraph.Digraph, end digraph.Vertex) BitSet {
	n := g.NumVertices()
	seen := NewBitSet(n)
	seen.Set(int(end))
	queue := []digraph.Vertex{end}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.InArcs(v) {
			t := g.Arc(a).Tail
			if !seen.Get(int(t)) {
				seen.Set(int(t))
				queue = append(queue, t)
			}
		}
	}
	return seen
}

// IsArborescence reports whether g is a rooted out-tree: a single root of
// in-degree 0, every other vertex of in-degree exactly 1, and all vertices
// reachable from the root. The root is returned when the check passes.
func IsArborescence(g *digraph.Digraph) (digraph.Vertex, bool) {
	if !IsDAG(g) {
		return -1, false
	}
	root := digraph.Vertex(-1)
	for v := 0; v < g.NumVertices(); v++ {
		switch g.InDegree(digraph.Vertex(v)) {
		case 0:
			if root >= 0 {
				return -1, false // two roots
			}
			root = digraph.Vertex(v)
		case 1:
			// interior or leaf
		default:
			return -1, false
		}
	}
	if root < 0 {
		return -1, false
	}
	if ReachableFrom(g, root).Count() != g.NumVertices() {
		return -1, false
	}
	return root, true
}

// ArcPeelingOrder returns the arcs of the DAG g ordered so that, for every
// k, the tail of the k-th arc is a source of the graph obtained from g by
// deleting the first k-1 arcs. This is the deletion order used by the
// inductive proof of Theorem 1 of Bermond & Cosnard: the arcs are sorted
// by the topological index of their tails, so when an arc is reached all
// arcs entering its tail (whose tails are strictly earlier) are already
// deleted.
func ArcPeelingOrder(g *digraph.Digraph) ([]digraph.ArcID, error) {
	order, err := TopoSort(g)
	if err != nil {
		return nil, err
	}
	// The out-arcs of each tail in topological order: OutArcs lists a
	// vertex's arcs in insertion order, which is increasing id, so this
	// is the stable sort of the arcs by their tail's topological index.
	out := make([]digraph.ArcID, 0, g.NumArcs())
	for _, v := range order {
		out = append(out, g.OutArcs(v)...)
	}
	return out, nil
}
