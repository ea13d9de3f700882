package wdm

import (
	"errors"
	"testing"

	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// TestSessionProvisionEquivalence pins the one-shot Provision to the
// Session pipeline: a session with the policy's routing strategy,
// filled with the same requests and colored once from scratch, must
// materialise the identical Provisioning, field for field (see
// sessionProvision). An incremental session replaying the requests must
// route them identically and agree on π, with λ within slack. It covers
// the shortest and min-load policies on a Theorem-1 topology and all
// three on the Havet UPP-DAG (one internal cycle, Theorem 6); the error
// paths are TestProvisionErrorsMatchSession's.
func TestSessionProvisionEquivalence(t *testing.T) {
	havet, _ := gen.Havet()
	cases := []struct {
		name     string
		net      *Network
		reqs     []route.Request
		policies []RoutingPolicy
	}{
		{"theorem1", testNetwork(), someRequests(testNetwork(), 40), []RoutingPolicy{RouteShortest, RouteMinLoad}},
		{"havet", &Network{Topology: havet, Wavelengths: 3}, route.AllToAll(havet), []RoutingPolicy{RouteShortest, RouteMinLoad, RouteUPP}},
	}
	for _, tc := range cases {
		for _, policy := range tc.policies {
			name := tc.name + "/" + policy.String()
			ref, err := tc.net.Provision(tc.reqs, policy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameAsSession(t, name, tc.net, tc.reqs, policy, ref, nil)
			s, err := tc.net.NewSession(WithRoutingPolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range tc.reqs {
				if _, err := s.Add(req); err != nil {
					t.Fatal(err)
				}
			}
			prov, err := s.Provisioning()
			if err != nil {
				t.Fatal(err)
			}
			if prov.Pi != ref.Pi {
				t.Fatalf("%s: session π = %d, Provision π = %d", name, prov.Pi, ref.Pi)
			}
			if prov.Method != core.MethodIncremental {
				t.Fatalf("%s: method = %s", name, prov.Method)
			}
			if prov.NumLambda > ref.NumLambda+core.DefaultSlack {
				t.Fatalf("%s: session λ = %d, Provision λ = %d", name, prov.NumLambda, ref.NumLambda)
			}
			// Routes must be identical path-for-path: both sides route the
			// same requests in the same order through the same router logic.
			for i := range tc.reqs {
				if !prov.Paths[i].Equal(ref.Paths[i]) {
					t.Fatalf("%s: request %d routed differently: %s vs %s",
						name, i, prov.Paths[i], ref.Paths[i])
				}
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSessionReroute checks rerouting under the min-load strategy: a
// congested request is moved off the hot arc once alternatives free up,
// ids survive, and the assignment stays Verify-clean.
func TestSessionReroute(t *testing.T) {
	net := testNetwork()
	s, err := net.NewSession(WithRoutingPolicy(RouteMinLoad))
	if err != nil {
		t.Fatal(err)
	}
	reqs := someRequests(net, 30)
	ids := make([]SessionID, 0, len(reqs))
	for _, req := range reqs {
		id, err := s.Add(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	piBefore := s.Pi()
	// Tear down half the requests, then reroute the survivors: π must
	// never increase (a reroute only moves a path to a better-or-equal
	// alternative under the current loads).
	for i := 0; i < len(ids); i += 2 {
		if err := s.Remove(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ids); i += 2 {
		if _, err := s.Reroute(ids[i]); err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("after reroute of %d: %v", ids[i], err)
		}
	}
	if s.Pi() > piBefore {
		t.Fatalf("π grew from %d to %d under teardown+reroute", piBefore, s.Pi())
	}
	if _, err := s.Reroute(ids[0]); err == nil {
		t.Fatal("reroute of a removed id accepted")
	}
	if _, err := s.Wavelength(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Path(SessionID(1 << 40)); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// flakyColorer fails the next `*fail` Add calls before touching the
// wrapped colorer, simulating a coloring layer that rejects an
// insertion mid-Reroute.
type flakyColorer struct {
	colorer
	fail *int
}

func (c *flakyColorer) Add(p *dipath.Path) (int, error) {
	if *c.fail > 0 {
		*c.fail--
		return -1, errors.New("injected coloring failure")
	}
	return c.colorer.Add(p)
}

// rerouteFixture builds a min-load session on a diamond (0->1->3,
// 0->2->3) whose first request routes via 1, with extra traffic loading
// that branch so a Reroute of the first request must switch to the
// branch via 2 — forcing the coloring Remove+Add sequence whose failure
// paths the tests below inject into.
func rerouteFixture(t *testing.T) (*Session, SessionID, *int) {
	t.Helper()
	g := digraph.New(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 3)
	g.MustAddArc(0, 2)
	g.MustAddArc(2, 3)
	net := &Network{Topology: g}
	s, err := net.NewSession(WithRoutingPolicy(RouteMinLoad))
	if err != nil {
		t.Fatal(err)
	}
	fail := new(int)
	s.coloring = &flakyColorer{colorer: s.coloring, fail: fail}
	id, err := s.Add(route.Request{Src: 0, Dst: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []route.Request{{Src: 0, Dst: 1}, {Src: 1, Dst: 3}} {
		if _, err := s.Add(req); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.Path(id)
	if err != nil {
		t.Fatal(err)
	}
	if !p.ContainsVertex(1) {
		t.Fatalf("fixture: first request routed %v, want the branch via 1", p)
	}
	return s, id, fail
}

// TestSessionRerouteFailureRestore injects a coloring.Add failure after
// Reroute has already removed the old slot: the session must restore
// the old path, keep π and λ, and stay Verify-clean; the next
// (uninjected) Reroute must then succeed.
func TestSessionRerouteFailureRestore(t *testing.T) {
	s, id, fail := rerouteFixture(t)
	oldPath, _ := s.Path(id)
	piBefore, lenBefore := s.Pi(), s.Len()
	lambdaBefore, err := s.NumLambda()
	if err != nil {
		t.Fatal(err)
	}

	*fail = 1 // the reroute's Add fails; the restoring Add succeeds
	changed, rerr := s.Reroute(id)
	if rerr == nil || changed {
		t.Fatalf("Reroute = (%v, %v), want an error with no change", changed, rerr)
	}
	if *fail != 0 {
		t.Fatalf("injection not consumed (%d left)", *fail)
	}
	p, err := s.Path(id)
	if err != nil {
		t.Fatalf("request lost after restored failure: %v", err)
	}
	if !p.Equal(oldPath) {
		t.Fatalf("path changed across a failed reroute: %v -> %v", oldPath, p)
	}
	if s.Pi() != piBefore || s.Len() != lenBefore {
		t.Fatalf("π/len moved: π %d→%d len %d→%d", piBefore, s.Pi(), lenBefore, s.Len())
	}
	if lambda, err := s.NumLambda(); err != nil || lambda != lambdaBefore {
		t.Fatalf("λ moved across a restored failure: %d → %d (%v)", lambdaBefore, lambda, err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("session not Verify-clean after restored failure: %v", err)
	}

	// The same reroute without injection must now go through.
	changed, err = s.Reroute(id)
	if err != nil || !changed {
		t.Fatalf("clean Reroute = (%v, %v), want a changed route", changed, err)
	}
	if p, _ := s.Path(id); !p.ContainsVertex(2) {
		t.Fatalf("rerouted path %v does not use the unloaded branch", p)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionRerouteFailureDrop injects failures into both the
// reroute's Add and the restoring Add: the session must drop the
// request cleanly — id dead, load released, Verify-clean — rather than
// leak a half-installed state.
func TestSessionRerouteFailureDrop(t *testing.T) {
	s, id, fail := rerouteFixture(t)
	lenBefore := s.Len()

	*fail = 2 // reroute's Add and the restoring Add both fail
	changed, rerr := s.Reroute(id)
	if rerr == nil || changed {
		t.Fatalf("Reroute = (%v, %v), want a drop error", changed, rerr)
	}
	if _, err := s.Path(id); err == nil {
		t.Fatal("dropped request still resolves")
	}
	if s.Len() != lenBefore-1 {
		t.Fatalf("Len = %d, want %d after the drop", s.Len(), lenBefore-1)
	}
	if err := s.Remove(id); err == nil {
		t.Fatal("Remove of a dropped id succeeded")
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("session not Verify-clean after a drop: %v", err)
	}
	// The session keeps working: the dropped request can be re-added.
	if _, err := s.Add(route.Request{Src: 0, Dst: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
