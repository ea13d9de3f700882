package wdm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// sessionProvision is the Session pipeline one-shot Provision must
// equal: a session with the policy's routing strategy and the "full"
// coloring strategy, filled with reqs in order and materialised once.
func sessionProvision(n *Network, reqs []route.Request, policy RoutingPolicy) (*Provisioning, error) {
	strat, err := policy.Strategy()
	if err != nil {
		return nil, err
	}
	s, err := n.NewSession(WithRoutingStrategy(strat), WithColoringStrategyName(ColoringFull))
	if err != nil {
		return nil, err
	}
	for _, req := range reqs {
		if _, err := s.Add(req); err != nil {
			return nil, err
		}
	}
	return s.Provisioning()
}

// provisioningDiff names the first field where a and b differ, or
// returns "" when they are equal: paths arc for arc, wavelengths, λ, π,
// method, Feasible and ADMs.
func provisioningDiff(a, b *Provisioning) string {
	if len(a.Paths) != len(b.Paths) {
		return fmt.Sprintf("%d paths vs %d", len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		if !a.Paths[i].Equal(b.Paths[i]) {
			return fmt.Sprintf("path %d: %s vs %s", i, a.Paths[i], b.Paths[i])
		}
	}
	switch {
	case !slices.Equal(a.Wavelengths, b.Wavelengths):
		return fmt.Sprintf("wavelengths %v vs %v", a.Wavelengths, b.Wavelengths)
	case a.NumLambda != b.NumLambda:
		return fmt.Sprintf("λ %d vs %d", a.NumLambda, b.NumLambda)
	case a.Pi != b.Pi:
		return fmt.Sprintf("π %d vs %d", a.Pi, b.Pi)
	case a.Method != b.Method:
		return fmt.Sprintf("method %s vs %s", a.Method, b.Method)
	case a.Feasible != b.Feasible:
		return fmt.Sprintf("feasible %v vs %v", a.Feasible, b.Feasible)
	case a.ADMs != b.ADMs:
		return fmt.Sprintf("ADMs %d vs %d", a.ADMs, b.ADMs)
	}
	return ""
}

// requireSameAsSession fails unless Provision's outcome (got, err)
// equals the Session pipeline's on the same input: the same
// Provisioning field for field, or the same error text.
func requireSameAsSession(t testing.TB, name string, n *Network, reqs []route.Request, policy RoutingPolicy, got *Provisioning, err error) {
	t.Helper()
	want, werr := sessionProvision(n, reqs, policy)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: Provision err = %v, session err = %v", name, err, werr)
	}
	if err != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("%s: Provision err %q, session err %q", name, err, werr)
		}
		return
	}
	if d := provisioningDiff(got, want); d != "" {
		t.Fatalf("%s: Provision differs from the session pipeline: %s", name, d)
	}
}

// TestProvisionErrorsMatchSession covers Provision's error paths against
// the Session pipeline: an unroutable request, a request whose only
// route crosses a failed arc (both an ErrNoRoute behind "wdm: routing:",
// for the failure-aware routers and for UPP's failure-blind one), and
// upp routing on a non-UPP graph ("wdm: routing setup:").
func TestProvisionErrorsMatchSession(t *testing.T) {
	requireNoRoute := func(name string, n *Network, reqs []route.Request, policy RoutingPolicy, bad route.Request) {
		t.Helper()
		_, err := n.Provision(reqs, policy)
		var nr route.ErrNoRoute
		if !errors.As(err, &nr) || nr.Req != bad || !errors.Is(err, route.ErrNoRoute{Req: bad}) {
			t.Fatalf("%s: err = %v, want ErrNoRoute for %v", name, err, bad)
		}
		requireSameAsSession(t, name, n, reqs, policy, nil, err)
	}

	// 0→1←2: the two sources cannot reach each other.
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(2, 1)
	n := &Network{Topology: g}
	bad := route.Request{Src: 0, Dst: 2}
	for _, policy := range []RoutingPolicy{RouteShortest, RouteMinLoad, RouteUPP} {
		requireNoRoute("unroutable/"+policy.String(), n, []route.Request{{Src: 0, Dst: 1}, bad}, policy, bad)
	}

	// Havet is UPP: cutting an arc of a request's unique route leaves it
	// no route at all, and the UPP router still proposes the cut one.
	havet, _ := gen.Havet()
	reqs := route.AllToAll(havet)
	bad = reqs[len(reqs)/2]
	only, err := route.NewRouter(havet).ShortestPath(bad.Src, bad.Dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := havet.FailArc(only.Arc(0)); err != nil {
		t.Fatal(err)
	}
	n = &Network{Topology: havet}
	for _, policy := range []RoutingPolicy{RouteShortest, RouteMinLoad, RouteUPP} {
		requireNoRoute("cut/"+policy.String(), n, []route.Request{bad}, policy, bad)
	}

	n = testNetwork()
	_, err = n.Provision(someRequests(n, 5), RouteUPP)
	if err == nil || !strings.HasPrefix(err.Error(), "wdm: routing setup:") {
		t.Fatalf("upp on a non-UPP graph: err = %v", err)
	}
	requireSameAsSession(t, "non-upp", n, someRequests(n, 5), RouteUPP, nil, err)
}

// requireSameAsFresh fails unless n's plan of reqs (got, err) equals a
// fresh Network's plan on the same topology and capacity: the same
// Provisioning field for field, or the same error text.
func requireSameAsFresh(t testing.TB, name string, n *Network, reqs []route.Request, policy RoutingPolicy, got *Provisioning, err error) {
	t.Helper()
	want, werr := (&Network{Topology: n.Topology, Wavelengths: n.Wavelengths}).Provision(reqs, policy)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: err = %v, fresh Network's err = %v", name, err, werr)
	}
	if err == nil {
		if d := provisioningDiff(got, want); d != "" {
			t.Fatalf("%s: plan differs from a fresh Network's: %s", name, d)
		}
	}
}

// drawRequests draws count requests from the pairs g routes between
// with its live arcs.
func drawRequests(g *digraph.Digraph, count int, rng *rand.Rand) []route.Request {
	pool := route.NewRouter(g).AllToAll()
	reqs := make([]route.Request, count)
	for i := range reqs {
		reqs[i] = pool[rng.Intn(len(pool))]
	}
	return reqs
}

// TestProvisionReuseMatchesFresh plans request sets on one Network
// while the topology changes between plans: an arc is cut and restored,
// the graph gains an arc and a vertex, and Topology is swapped for
// another graph and back. Every plan, under both router-backed
// policies, must equal a fresh Network's: Provision carries no state
// from one call to the next that such a change could leave stale. A
// parallel case then runs four goroutines planning on one Network;
// each result must equal the sequential one.
func TestProvisionReuseMatchesFresh(t *testing.T) {
	g, err := gen.RandomNoInternalCycleDAG(80, 5, 5, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	other, err := gen.RandomNoInternalCycleDAG(40, 4, 4, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := &Network{Topology: g, Wavelengths: 12}
	rng := rand.New(rand.NewSource(9))
	// Each step plans a routable set under both policies, then the
	// same set with an arbitrary pair appended, which may fail.
	plan := func(step string) {
		t.Helper()
		for _, policy := range []RoutingPolicy{RouteShortest, RouteMinLoad} {
			reqs := drawRequests(n.Topology, 60, rng)
			name := fmt.Sprintf("%s/%v", step, policy)
			got, err := n.Provision(reqs, policy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameAsFresh(t, name, n, reqs, policy, got, err)
			nv := n.Topology.NumVertices()
			reqs = append(reqs, route.Request{Src: digraph.Vertex(rng.Intn(nv)), Dst: digraph.Vertex(rng.Intn(nv))})
			got, err = n.Provision(reqs, policy)
			requireSameAsFresh(t, name+"/arbitrary", n, reqs, policy, got, err)
		}
	}

	plan("first")
	busy := g.OutArcs(g.Sources()[0])[0]
	if err := g.FailArc(busy); err != nil {
		t.Fatal(err)
	}
	plan("cut")
	if err := g.RestoreArc(busy); err != nil {
		t.Fatal(err)
	}
	plan("restored")
	arc := g.Arc(busy)
	g.MustAddArc(arc.Tail, arc.Head)
	plan("arc added")
	v := g.AddVertex("")
	g.MustAddArc(arc.Head, v)
	g.MustAddArc(arc.Tail, v)
	plan("vertex added")

	n.Topology = other
	plan("swapped")
	n.Topology = g
	plan("swapped back")

	// Parallel: each goroutine plans every set, in its own order, and
	// must get the plans of a sequential run.
	sets := make([][]route.Request, 6)
	want := make([]*Provisioning, len(sets))
	for i := range sets {
		sets[i] = drawRequests(g, 80, rng)
		if want[i], err = (&Network{Topology: g}).Provision(sets[i], RouteMinLoad); err != nil {
			t.Fatal(err)
		}
	}
	shared := &Network{Topology: g}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(sets))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range sets {
				i := (k + w) % len(sets)
				got, err := shared.Provision(sets[i], RouteMinLoad)
				if err != nil {
					errs <- fmt.Sprintf("goroutine %d set %d: %v", w, i, err)
					continue
				}
				if d := provisioningDiff(got, want[i]); d != "" {
					errs <- fmt.Sprintf("goroutine %d set %d: %s", w, i, d)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// oracleCountADMs is the sort-deduplicating ADM count the linear
// countADMs replaced: terminations packed into int64s (vertex high,
// wavelength low, so −1 is a wavelength of its own), sorted, and the
// distinct values counted.
func oracleCountADMs(fam dipath.Family, colors []int) int {
	terms := make([]int64, 0, 2*len(fam))
	for i, p := range fam {
		for _, v := range []digraph.Vertex{p.First(), p.Last()} {
			terms = append(terms, int64(v)<<32|int64(uint32(colors[i])))
		}
	}
	slices.Sort(terms)
	return len(slices.Compact(terms))
}

// TestCountADMsMatchesSortOracle compares countADMs with the old
// sort-dedup count on random families and wavelengths (including
// unassigned −1), on chained lightpaths sharing an ADM, on single-vertex
// paths, on the empty family and on merged ShardedEngine provisionings.
func TestCountADMsMatchesSortOracle(t *testing.T) {
	check := func(name string, fam dipath.Family, colors []int) {
		t.Helper()
		if got, want := countADMs(fam, colors), oracleCountADMs(fam, colors); got != want {
			t.Fatalf("%s: countADMs = %d, oracle = %d", name, got, want)
		}
	}
	check("empty", nil, nil)

	// A chain 0→1→2→3 cut into lightpaths: on one wavelength the inner
	// vertices share their ADM, on alternating ones they do not.
	chain := digraph.New(4)
	for v := 0; v < 3; v++ {
		chain.MustAddArc(digraph.Vertex(v), digraph.Vertex(v+1))
	}
	hops := dipath.Family{
		dipath.MustFromVertices(chain, 0, 1),
		dipath.MustFromVertices(chain, 1, 2),
		dipath.MustFromVertices(chain, 2, 3),
	}
	check("chain one λ", hops, []int{0, 0, 0})
	check("chain alternating", hops, []int{0, 1, 0})
	if got := countADMs(hops, []int{0, 0, 0}); got != 4 {
		t.Fatalf("chain of 3 hops on one wavelength: %d ADMs, want 4", got)
	}
	single := dipath.Family{dipath.MustFromVertices(chain, 2), dipath.MustFromVertices(chain, 2)}
	check("single-vertex", single, []int{0, 0})
	check("single-vertex, two λ", single, []int{0, 1})

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		g, err := gen.RandomNoInternalCycleDAG(2+rng.Intn(20), 1+rng.Intn(4), 1+rng.Intn(4), 0.3, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		fam := gen.RandomWalkFamily(g, rng.Intn(60), 1+rng.Intn(6), rng.Int63())
		for i := 0; i < rng.Intn(4); i++ {
			fam = append(fam, dipath.MustFromVertices(g, digraph.Vertex(rng.Intn(g.NumVertices()))))
		}
		colors := make([]int, len(fam))
		lambda := 1 + rng.Intn(6)
		for i := range colors {
			colors[i] = rng.Intn(lambda+1) - 1 // −1 .. λ−1
		}
		check(fmt.Sprintf("random %d", trial), fam, colors)
	}

	components, err := multiComponentNetwork(t, 4, 61).NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	twoLevel := twoLevelEngine(t, giantComponentNetwork(t, 4, 63))
	for _, eng := range []*ShardedEngine{components, twoLevel} {
		pool := route.AllToAll(eng.net.Topology)
		for i := 0; i < 150; i++ {
			if _, err := eng.Add(pool[rng.Intn(len(pool))]); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := eng.Provisioning()
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleCountADMs(merged.Paths, merged.Wavelengths); merged.ADMs != want {
			t.Fatalf("merged provisioning: ADMs = %d, oracle = %d", merged.ADMs, want)
		}
	}
}

// TestProvisionAllocs guards the allocation budget of one-shot planning
// at the plan-theorem1 shape: 5000 min-load requests on the
// 500-internal-vertex DAG without internal cycle. The routed paths come
// from the plan's arena and the router's ancestor sets from one slab,
// so the paths' blocks, the router, the tracker, the Theorem-1 peel and
// the ADM count together must stay within 0.1 allocations per request
// (a few hundred per plan, against three per path when each path was
// allocated on its own).
func TestProvisionAllocs(t *testing.T) {
	g, reqs := planTheorem1(t)
	n := &Network{Topology: g}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := n.Provision(reqs, RouteMinLoad); err != nil {
			t.Fatal(err)
		}
	})
	if perReq := allocs / float64(len(reqs)); perReq > 0.1 {
		t.Fatalf("Provision: %.3f allocations per request (%v per plan), want <= 0.1", perReq, allocs)
	}
}

// TestProvisionPathsCapped checks the full-slice caps of the arena a
// plan's paths are carved from, on every path of a plan-theorem1-shaped
// Provision under both arena-backed policies: appending to any path's
// Arcs or Vertices must leave every other path of the plan unchanged.
func TestProvisionPathsCapped(t *testing.T) {
	g, reqs := planTheorem1(t)
	n := &Network{Topology: g}
	for _, policy := range []RoutingPolicy{RouteShortest, RouteMinLoad} {
		prov, err := n.Provision(reqs, policy)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]string, len(prov.Paths))
		for i, p := range prov.Paths {
			before[i] = fmt.Sprint(p.Arcs(), p.Vertices())
			if cap(p.Arcs()) != p.NumArcs() || cap(p.Vertices()) != p.NumVertices() {
				t.Fatalf("%v path %d: caps %d/%d for %d arcs, %d vertices", policy, i,
					cap(p.Arcs()), cap(p.Vertices()), p.NumArcs(), p.NumVertices())
			}
		}
		for _, p := range prov.Paths {
			_ = append(p.Arcs(), -1)
			_ = append(p.Vertices(), -1)
		}
		for i, p := range prov.Paths {
			if got := fmt.Sprint(p.Arcs(), p.Vertices()); got != before[i] {
				t.Fatalf("%v path %d changed by an append to another path: %s, was %s", policy, i, got, before[i])
			}
		}
		if err := prov.Paths.Validate(g); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
	}
}

// planTheorem1 is the plan-theorem1 shape: the 500-internal-vertex DAG
// without internal cycle and 5000 seeded routable requests.
func planTheorem1(t testing.TB) (*digraph.Digraph, []route.Request) {
	g, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(g).AllToAll()
	rng := rand.New(rand.NewSource(1))
	reqs := make([]route.Request, 5000)
	for i := range reqs {
		reqs[i] = pool[rng.Intn(len(pool))]
	}
	return g, reqs
}

// sinkProvisioning keeps benchmark results live.
var sinkProvisioning *Provisioning

// BenchmarkProvisionCold plans the plan-theorem1 shape on a fresh
// Network per iteration: the whole one-shot pipeline, the router's
// CSR, in-adjacency, neighbour words and ancestor sets included.
func BenchmarkProvisionCold(b *testing.B) {
	g, reqs := planTheorem1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prov, err := (&Network{Topology: g}).Provision(reqs, RouteMinLoad)
		if err != nil {
			b.Fatal(err)
		}
		sinkProvisioning = prov
	}
}
