package core

import (
	"math/rand"
	"testing"

	"wavedag/internal/conflict"
	"wavedag/internal/dag"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
)

// oracleFirstFit is first-fit by neighbour walk: the smallest color
// below limit that no conflict neighbour of slot s uses, with the
// neighbours read off cg, the static conflict graph of the live family
// (vertex i is slots[i]; pos inverts slots). Incremental.firstFit reads
// per-arc masks instead and must agree with it whenever limit ≤ the
// color of s (or s is uncolored).
func oracleFirstFit(ic *Incremental, cg *conflict.Graph, slots, pos []int, s, limit int) int {
	used := make([]bool, limit)
	cg.ForEachNeighbor(pos[s], func(u int) {
		if c := ic.colors[slots[u]]; c >= 0 && c < limit {
			used[c] = true
		}
	})
	for c := 0; c < limit; c++ {
		if !used[c] {
			return c
		}
	}
	return -1
}

// checkFirstFitOracle compares firstFit with the oracle for every live
// slot s and every limit the callers may pass: 0 … colors[s].
func checkFirstFitOracle(t *testing.T, op int, ic *Incremental) {
	t.Helper()
	slots := ic.dyn.LiveSlots()
	cg := conflict.FromFamily(ic.g, ic.dyn.Family())
	pos := make([]int, ic.dyn.NumSlots())
	for i, s := range slots {
		pos[s] = i
	}
	for _, s := range slots {
		for limit := 0; limit <= ic.colors[s]; limit++ {
			if got, want := ic.firstFit(s, limit), oracleFirstFit(ic, cg, slots, pos, s, limit); got != want {
				t.Fatalf("op %d: firstFit(slot %d, limit %d) = %d, neighbour walk gives %d", op, s, limit, got, want)
			}
		}
	}
}

// ffChurn drives an Incremental through a random stream of Add,
// AddUnderLimit and Remove on g, growing g by one arc every growEvery
// ops (0 = never) and checking the invariants and the first-fit oracle
// after every op. New arcs respect a fixed topological order, so g
// stays a DAG, and the request pool is redrawn to use them.
type ffChurn struct {
	t     *testing.T
	g     *digraph.Digraph
	ic    *Incremental
	order []int // topological index of each vertex
	pool  dipath.Family
	live  []int
	rng   *rand.Rand
	adds  int // paths admitted
	rejs  int // AddUnderLimit rejections
	grown int // arcs added mid-stream
}

func newFFChurn(t *testing.T, g *digraph.Digraph, pool dipath.Family, seed int64) *ffChurn {
	t.Helper()
	order, err := dag.TopoIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	return &ffChurn{t: t, g: g, ic: NewIncremental(g, 1), order: order, pool: pool, rng: rand.New(rand.NewSource(seed))}
}

// add offers pool[i] through Add (limit ≤ 0) or AddUnderLimit.
func (c *ffChurn) add(i, limit int) {
	c.t.Helper()
	before := c.ic.dyn.NumLive()
	s, ok, err := c.ic.AddUnderLimit(c.pool[i%len(c.pool)], limit)
	if err != nil {
		c.t.Fatal(err)
	}
	if !ok {
		if c.ic.dyn.NumLive() != before {
			c.t.Fatalf("rejection changed the live count %d -> %d", before, c.ic.dyn.NumLive())
		}
		c.rejs++
		return
	}
	if limit > 0 && c.ic.Wavelength(s) >= limit {
		c.t.Fatalf("AddUnderLimit(%d) colored the path %d", limit, c.ic.Wavelength(s))
	}
	c.live = append(c.live, s)
	c.adds++
}

func (c *ffChurn) remove(i int) {
	c.t.Helper()
	if len(c.live) == 0 {
		return
	}
	k := i % len(c.live)
	if err := c.ic.Remove(c.live[k]); err != nil {
		c.t.Fatal(err)
	}
	c.live[k] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
}

// grow adds the arc between the x-th and y-th vertices in topological
// order (skipped when they coincide), hands the new arc space to the
// colorer, and mixes paths over the grown graph into the pool.
func (c *ffChurn) grow(x, y int) {
	c.t.Helper()
	n := c.g.NumVertices()
	u, v := digraph.Vertex(x%n), digraph.Vertex(y%n)
	if c.order[u] == c.order[v] {
		return
	}
	if c.order[u] > c.order[v] {
		u, v = v, u
	}
	c.g.MustAddArc(u, v)
	c.ic.GrowArcs(c.g.NumArcs())
	c.pool = append(c.pool, dipath.MustFromVertices(c.g, u, v))
	c.pool = append(c.pool, gen.RandomWalkFamily(c.g, 4, 5, int64(x*257+y))...)
	c.grown++
}

func (c *ffChurn) check(op int) {
	c.t.Helper()
	checkIncrementalInvariants(c.t, op, c.ic)
	checkFirstFitOracle(c.t, op, c.ic)
}

// run performs ops random steps with at most liveCap live paths.
func (c *ffChurn) run(ops, liveCap, limit, growEvery int) {
	c.t.Helper()
	for op := 0; op < ops; op++ {
		switch {
		case growEvery > 0 && op%growEvery == growEvery-1:
			c.grow(c.rng.Int(), c.rng.Int())
		case len(c.live) < liveCap && (len(c.live) == 0 || c.rng.Intn(3) != 0):
			c.add(c.rng.Intn(len(c.pool)), limit)
		default:
			c.remove(c.rng.Int())
		}
		c.check(op)
	}
}

// TestFirstFitMatchesNeighbourWalk checks the mask-based first-fit
// against the neighbour-walk oracle on every live slot after every op:
// Theorem 1 DAGs, general random DAGs, and the χ > π Theorem 2 gadget
// and Havet families, under unlimited adds and tight AddUnderLimit
// budgets, with arcs added in mid-stream.
func TestFirstFitMatchesNeighbourWalk(t *testing.T) {
	noCycle, err := gen.RandomNoInternalCycleDAG(14, 3, 3, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	general := gen.RandomDAG(16, 40, 12)
	gadget, gadgetFam, err := gen.InternalCycleGadget(3)
	if err != nil {
		t.Fatal(err)
	}
	havet, havetFam := gen.Havet()
	// The staircase's conflict graph is complete, so its λ passes 64 and
	// the masks widen to two words.
	stair, stairFam, err := gen.Fig1Staircase(72)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *digraph.Digraph
		pool    dipath.Family
		liveCap int
		ops     int
	}{
		{"no-internal-cycle", noCycle, gen.RandomWalkFamily(noCycle, 60, 6, 13), 40, 300},
		{"random-dag", general, gen.RandomWalkFamily(general, 60, 6, 14), 40, 300},
		{"gadget", gadget, gadgetFam.Replicate(2), 12, 200},
		{"havet", havet, havetFam.Replicate(2), 12, 200},
		{"staircase", stair, stairFam, 72, 300},
	}
	for ci, tc := range cases {
		for _, limit := range []int{0, 2, 3, 6} {
			for _, growEvery := range []int{0, 25} {
				// Each run grows its own copy of the topology.
				g := tc.g.Clone()
				pool := make(dipath.Family, len(tc.pool))
				for i, p := range tc.pool {
					pool[i] = dipath.MustFromVertices(g, p.Vertices()...)
				}
				c := newFFChurn(t, g, pool, int64(100*ci+10*limit+growEvery))
				c.run(tc.ops, tc.liveCap, limit, growEvery)
				if c.adds == 0 || (growEvery > 0 && c.grown == 0) {
					t.Fatalf("%s limit %d grow %d: degenerate run (%d adds, %d arcs grown)",
						tc.name, limit, growEvery, c.adds, c.grown)
				}
				if limit == 2 && c.rejs == 0 {
					t.Fatalf("%s: limit 2 never rejected a path", tc.name)
				}
				if tc.name == "staircase" && limit == 0 && growEvery == 0 && c.ic.words < 2 {
					t.Fatalf("staircase: masks never widened (λ = %d)", c.ic.NumLambda())
				}
			}
		}
	}
}
