package gen

import (
	"math/rand"
	"sort"

	"wavedag/internal/digraph"
)

// The request-pool generators as they were when each carried its own
// all-sources search and listed every reachable pair: the oracles the
// reachability-index generators must match entry for entry.

func oracleLocalityRequestPool(g *digraph.Digraph, groups [][]digraph.Vertex, frac float64, size int, seed int64) [][2]digraph.Vertex {
	// Group memberships per vertex (glue vertices belong to two).
	member := make([][]int, g.NumVertices())
	for gi, vs := range groups {
		for _, v := range vs {
			member[v] = append(member[v], gi)
		}
	}
	shareGroup := func(u, v digraph.Vertex) bool {
		for _, a := range member[u] {
			for _, b := range member[v] {
				if a == b {
					return true
				}
			}
		}
		return false
	}
	n := g.NumVertices()
	var local, cross [][2]digraph.Vertex
	seen := make([]bool, n)
	queue := make([]digraph.Vertex, 0, n)
	for u := 0; u < n; u++ {
		for i := range seen {
			seen[i] = false
		}
		src := digraph.Vertex(u)
		seen[src] = true
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			for _, a := range g.OutArcs(queue[head]) {
				if h := g.Arc(a).Head; !seen[h] {
					seen[h] = true
					queue = append(queue, h)
				}
			}
		}
		for v := 0; v < n; v++ {
			if v == u || !seen[v] {
				continue
			}
			pair := [2]digraph.Vertex{src, digraph.Vertex(v)}
			if shareGroup(src, digraph.Vertex(v)) {
				local = append(local, pair)
			} else {
				cross = append(cross, pair)
			}
		}
	}
	if len(local) == 0 && len(cross) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([][2]digraph.Vertex, 0, size)
	for i := 0; i < size; i++ {
		pick := local
		if len(local) == 0 || (rng.Float64() >= frac && len(cross) > 0) {
			pick = cross
		}
		pool = append(pool, pick[rng.Intn(len(pick))])
	}
	return pool
}

func oracleHotspotRequestPool(g *digraph.Digraph, hotCount int, hotFrac float64, size int, seed int64) [][2]digraph.Vertex {
	n := g.NumVertices()
	outReach := make([]int, n)
	inReach := make([]int, n)
	var all [][2]digraph.Vertex
	seen := make([]bool, n)
	queue := make([]digraph.Vertex, 0, n)
	for u := 0; u < n; u++ {
		for i := range seen {
			seen[i] = false
		}
		src := digraph.Vertex(u)
		seen[src] = true
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			for _, a := range g.OutArcs(queue[head]) {
				if h := g.Arc(a).Head; !seen[h] {
					seen[h] = true
					queue = append(queue, h)
				}
			}
		}
		for v := 0; v < n; v++ {
			if v == u || !seen[v] {
				continue
			}
			outReach[u]++
			inReach[v]++
			all = append(all, [2]digraph.Vertex{src, digraph.Vertex(v)})
		}
	}
	if len(all) == 0 {
		return nil
	}
	// Hot set: top hotCount vertices by combined reach.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := outReach[order[a]]+inReach[order[a]], outReach[order[b]]+inReach[order[b]]
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	if hotCount > n {
		hotCount = n
	}
	hotSet := make([]bool, n)
	for _, v := range order[:hotCount] {
		hotSet[v] = true
	}
	var hot [][2]digraph.Vertex
	for _, pair := range all {
		if hotSet[pair[0]] && hotSet[pair[1]] {
			hot = append(hot, pair)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([][2]digraph.Vertex, 0, size)
	for i := 0; i < size; i++ {
		pick := all
		if len(hot) > 0 && rng.Float64() < hotFrac {
			pick = hot
		}
		pool = append(pool, pick[rng.Intn(len(pick))])
	}
	return pool
}
