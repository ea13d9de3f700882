package wdm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
// 500-internal-vertex DAG without internal cycle. Each routed path costs
// its arc slice, its vertex slice and the Path; the router's
// per-destination ancestor sets, the tracker, the Theorem-1 peel and the
// ADM count must share the remaining 0.25 allocations per request.
func TestProvisionAllocs(t *testing.T) {
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
	n := &Network{Topology: g}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := n.Provision(reqs, RouteMinLoad); err != nil {
			t.Fatal(err)
		}
	})
	if perReq := allocs / float64(len(reqs)); perReq > 3.25 {
		t.Fatalf("Provision: %.2f allocations per request (%v per plan), want <= 3.25", perReq, allocs)
	}
}
