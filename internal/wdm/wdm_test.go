package wdm

import (
	"testing"

	"wavedag/internal/check"
	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

func testNetwork() *Network {
	// An internal-cycle-free backbone: layered feeder into a spine.
	g, err := gen.RandomNoInternalCycleDAG(15, 4, 4, 0.3, 11)
	if err != nil {
		panic(err)
	}
	return &Network{Topology: g, Wavelengths: 16}
}

func someRequests(n *Network, count int) []route.Request {
	reqs := route.AllToAll(n.Topology)
	if len(reqs) > count {
		reqs = reqs[:count]
	}
	return reqs
}

func TestProvisionShortest(t *testing.T) {
	n := testNetwork()
	reqs := someRequests(n, 30)
	p, err := n.Provision(reqs, RouteShortest)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Paths) != len(reqs) || len(p.Wavelengths) != len(reqs) {
		t.Fatalf("sizes: %d paths, %d wavelengths", len(p.Paths), len(p.Wavelengths))
	}
	if err := check.Coloring(n.Topology, p.Paths, p.Wavelengths); err != nil {
		t.Fatal(err)
	}
	// The backbone is internal-cycle-free: Theorem 1 must apply and give
	// exactly π wavelengths.
	if p.Method != core.MethodTheorem1 {
		t.Fatalf("method = %s, want theorem1", p.Method)
	}
	if p.Pi >= 1 && p.NumLambda != p.Pi {
		t.Fatalf("λ = %d, π = %d", p.NumLambda, p.Pi)
	}
	// ADMs count distinct (endpoint, wavelength) terminations: never
	// more than two per lightpath, and at least one per wavelength in a
	// non-empty provisioning.
	if p.ADMs > 2*len(reqs) || p.ADMs < p.NumLambda {
		t.Fatalf("ADMs = %d out of range (%d requests, λ=%d)", p.ADMs, len(reqs), p.NumLambda)
	}
}

func TestProvisionMinLoadNeverWorse(t *testing.T) {
	n := testNetwork()
	reqs := someRequests(n, 40)
	short, err := n.Provision(reqs, RouteShortest)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := n.Provision(reqs, RouteMinLoad)
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Pi > short.Pi {
		t.Fatalf("min-load routing increased the load: %d > %d", balanced.Pi, short.Pi)
	}
	if err := check.Coloring(n.Topology, balanced.Paths, balanced.Wavelengths); err != nil {
		t.Fatal(err)
	}
}

func TestProvisionUPP(t *testing.T) {
	g, _ := gen.Havet()
	n := &Network{Topology: g, Wavelengths: 8}
	reqs := []route.Request{{Src: 0, Dst: 3}, {Src: 0, Dst: 7}, {Src: 4, Dst: 3}}
	p, err := n.Provision(reqs, RouteUPP)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != core.MethodTheorem6 {
		t.Fatalf("method = %s, want theorem6", p.Method)
	}
	if err := check.WavelengthsWithinBound(g, p.Paths, p.Wavelengths, 4, 3); err != nil {
		t.Fatal(err)
	}
}

func TestProvisionFeasibility(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	n := &Network{Topology: g, Wavelengths: 2}
	reqs := []route.Request{{Src: 0, Dst: 2}, {Src: 0, Dst: 2}, {Src: 0, Dst: 2}}
	p, err := n.Provision(reqs, RouteShortest)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLambda != 3 || p.Feasible {
		t.Fatalf("3 stacked lightpaths on W=2 must be infeasible: λ=%d feasible=%v", p.NumLambda, p.Feasible)
	}
	n.Wavelengths = 0 // unlimited
	p, err = n.Provision(reqs, RouteShortest)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Fatal("unlimited capacity must be feasible")
	}
}

func TestProvisionErrors(t *testing.T) {
	n := testNetwork()
	if _, err := n.Provision([]route.Request{{Src: -1, Dst: 0}}, RouteShortest); err == nil {
		t.Fatal("bad request accepted")
	}
	if _, err := n.Provision(nil, RoutingPolicy(99)); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := n.NewSession(WithRoutingPolicy(RoutingPolicy(99))); err == nil {
		t.Fatal("unknown policy accepted by WithRoutingPolicy")
	}
	if RoutingPolicy(99).String() == "" || RouteShortest.String() != "shortest" ||
		RouteMinLoad.String() != "min-load" || RouteUPP.String() != "upp" {
		t.Fatal("policy names wrong")
	}
}

func TestUtilization(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	n := &Network{Topology: g, Wavelengths: 4}
	p, err := n.Provision([]route.Request{{Src: 0, Dst: 2}, {Src: 0, Dst: 1}}, RouteShortest)
	if err != nil {
		t.Fatal(err)
	}
	util := n.Utilization(p)
	if util[0] != 0.5 || util[1] != 0.25 {
		t.Fatalf("utilization = %v", util)
	}
	// Unlimited capacity divides by λ used.
	n.Wavelengths = 0
	util = n.Utilization(p)
	if util[0] != 1.0 {
		t.Fatalf("utilization = %v", util)
	}
}

func TestLambdaPlanArcDisjoint(t *testing.T) {
	n := testNetwork()
	p, err := n.Provision(someRequests(n, 25), RouteShortest)
	if err != nil {
		t.Fatal(err)
	}
	for lambda := 0; lambda < p.NumLambda; lambda++ {
		plan := LambdaPlan(n.Topology, p, lambda)
		// Count total arc usages of this wavelength; any arc counted twice
		// would be a conflict.
		usage := 0
		for i, path := range p.Paths {
			if p.Wavelengths[i] == lambda {
				usage += path.NumArcs()
			}
		}
		if usage != len(plan) {
			t.Fatalf("λ%d: %d arc usages but %d distinct arcs — conflict", lambda, usage, len(plan))
		}
	}
}

// TestADMsSharedTerminations is the regression test for the ADM count:
// two lightpaths chaining through a node on the same wavelength share
// the ADM there, so the total is 3, not the flat 2·|family| = 4.
func TestADMsSharedTerminations(t *testing.T) {
	g := digraph.New(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	n := &Network{Topology: g}
	p, err := n.Provision([]route.Request{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, RouteShortest)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLambda != 1 {
		t.Fatalf("arc-disjoint chain should fit one wavelength, got %d", p.NumLambda)
	}
	if p.ADMs != 3 {
		t.Fatalf("ADMs = %d, want 3 (shared termination at the chain vertex)", p.ADMs)
	}
	// The same two paths on different wavelengths would need 4 ADMs:
	// stack a third conflicting request to force a second wavelength and
	// recount. The conflicting copies of 0->1 use 2 wavelengths, so node
	// 0 and node 1 each carry 2 ADM terminations for them.
	p, err = n.Provision([]route.Request{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}, RouteShortest)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLambda != 2 || p.ADMs != 4 {
		t.Fatalf("two stacked lightpaths: λ=%d ADMs=%d, want 2 and 4", p.NumLambda, p.ADMs)
	}
}
