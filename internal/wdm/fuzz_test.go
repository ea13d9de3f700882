package wdm

import (
	"math/rand"
	"testing"

	"wavedag/internal/core"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// FuzzTheorem1Precheck drives the Theorem-1 admission precheck against
// the general-DAG color-then-rollback probe (WithAdmissionRollbackProbe)
// replaying the identical op stream. On an internal-cycle-free topology
// a dipath family fits in w wavelengths exactly when its load is at
// most w, which pins the two sessions together:
//
//   - probe-accept ⟹ precheck-accept: any proper assignment needs at
//     least π wavelengths (paths sharing an arc conflict pairwise), so
//     a request the probe colored within w cannot have pushed the load
//     over w. A violation here is a genuine Theorem-1 bug.
//   - precheck-accept with probe-reject is allowed: the probe's
//     first-fit-plus-repack is a heuristic and may miss a w-coloring
//     that exists. When it happens, the precheck session must certify
//     the theorem by actually settling at λ ≤ w with the request held
//     (the cold pipeline guarantee behind enforceBudgetLambda); the
//     request is then removed again to keep the two sessions replaying
//     the same live family.
//
// Topologies are random orientations of random trees: a tree has no
// undirected cycle at all, so every orientation is an
// internal-cycle-free DAG, and the generator can never produce an input
// outside the theorem's hypothesis.
func FuzzTheorem1Precheck(f *testing.F) {
	f.Add([]byte{8, 1, 0xa5, 3, 7, 1, 4, 9, 2, 8, 6, 0, 5, 3, 7, 1})
	f.Add([]byte{15, 2, 0x5a, 1, 1, 2, 3, 5, 8, 13, 4, 12, 7, 9, 0, 6, 11, 2})
	f.Add([]byte{4, 0, 0xff, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte("210711!0210011"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("not enough bytes")
		}
		n := 2 + int(data[0]%14)
		w := 1 + int(data[1]%3)
		idx := 2
		next := func() byte {
			b := data[idx%len(data)]
			idx++
			return b
		}

		g := digraph.New(n)
		for v := 1; v < n; v++ {
			parent := digraph.Vertex(int(next()) % v)
			var err error
			if next()&1 == 0 {
				_, err = g.AddArc(parent, digraph.Vertex(v))
			} else {
				_, err = g.AddArc(digraph.Vertex(v), parent)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		net := &Network{Topology: g}
		pre, err := net.NewSession(WithWavelengthBudget(w))
		if err != nil {
			t.Fatalf("precheck session: %v", err)
		}
		probe, err := net.NewSession(WithWavelengthBudget(w), WithAdmissionRollbackProbe())
		if err != nil {
			t.Fatalf("probe session: %v", err)
		}

		type pair struct{ pre, probe SessionID }
		var live []pair
		ops := 8 + int(next())%24
		for i := 0; i < ops; i++ {
			if len(live) > 0 && next()%4 == 0 {
				k := int(next()) % len(live)
				pr := live[k]
				live = append(live[:k], live[k+1:]...)
				if err := pre.Remove(pr.pre); err != nil {
					t.Fatalf("precheck remove: %v", err)
				}
				if err := probe.Remove(pr.probe); err != nil {
					t.Fatalf("probe remove: %v", err)
				}
				continue
			}
			src := digraph.Vertex(int(next()) % n)
			dst := digraph.Vertex(int(next()) % n)
			if src == dst {
				continue
			}
			req := route.Request{Src: src, Dst: dst}
			id1, adm1, err1 := pre.TryAdd(req)
			id2, adm2, err2 := probe.TryAdd(req)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("routing disagreement on %v->%v: precheck err=%v, probe err=%v", src, dst, err1, err2)
			}
			if err1 != nil {
				continue // no route for either; identical by construction
			}
			switch {
			case adm1.Accepted && adm2.Accepted:
				live = append(live, pair{id1, id2})
			case adm2.Accepted && !adm1.Accepted:
				t.Fatalf("probe colored %v->%v within w=%d but the load precheck rejected it: λ ≥ π violated (π=%d)",
					src, dst, w, pre.Pi())
			case adm1.Accepted && !adm2.Accepted:
				// The probe's heuristic missed a coloring Theorem 1
				// guarantees. The precheck session must be holding one.
				nl, err := pre.NumLambda()
				if err != nil {
					t.Fatal(err)
				}
				if nl > w {
					t.Fatalf("precheck accepted %v->%v but settled at λ=%d > w=%d: Theorem-1 certificate missing",
						src, dst, nl, w)
				}
				if err := pre.Remove(id1); err != nil { // resynchronize the replay
					t.Fatalf("precheck resync remove: %v", err)
				}
			}
		}

		// The two sessions held the same family throughout, so their
		// aggregate state must agree, and both must verify within budget.
		if pre.Len() != probe.Len() {
			t.Fatalf("live counts diverged: precheck %d, probe %d", pre.Len(), probe.Len())
		}
		if pre.Pi() != probe.Pi() {
			t.Fatalf("π diverged: precheck %d, probe %d", pre.Pi(), probe.Pi())
		}
		for name, s := range map[string]*Session{"precheck": pre, "probe": probe} {
			nl, err := s.NumLambda()
			if err != nil {
				t.Fatalf("%s NumLambda: %v", name, err)
			}
			if nl > w {
				t.Fatalf("%s session over budget: λ=%d > w=%d", name, nl, w)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("%s session inconsistent: %v", name, err)
			}
		}
	})
}

// FuzzProvisionOracle checks one-shot Provision against the Session
// pipeline (sessionProvision: the policy's routing strategy and the
// "full" coloring strategy, filled with the same requests): the same
// Provisioning field for field, or the same error. A successful plan
// must also pass core.Verify, and on a topology without internal cycle
// it must use exactly π wavelengths (Theorem 1).
//
// The inputs decode to a topology kind and seed (a DAG without internal
// cycle, a UPP-DAG, or a random DAG, which may have internal cycles), a
// seed for the request draw (mostly routable pairs, with the odd
// arbitrary pair that may be unroutable or single-vertex), a routing
// policy with a fiber capacity, and an optional arc to cut first.
//
// The same requests are then planned again on the same Network after
// flipping the cut: the cut arc is restored, or, when none was cut, an
// arc picked by the request seed is cut. The second plan is held to the
// same checks.
func FuzzProvisionOracle(f *testing.F) {
	f.Add(uint8(0), int64(1), int64(2), uint8(1), uint16(0))
	f.Add(uint8(1), int64(7), int64(3), uint8(2), uint16(5))
	f.Add(uint8(2), int64(11), int64(5), uint8(3), uint16(0))
	f.Add(uint8(0), int64(29), int64(8), uint8(0), uint16(3))
	f.Fuzz(func(t *testing.T, kind uint8, topoSeed, reqSeed int64, policyByte uint8, cut uint16) {
		size := 3 + int(uint64(topoSeed)%18)
		var g *digraph.Digraph
		switch kind % 3 {
		case 0:
			var err error
			if g, err = gen.RandomNoInternalCycleDAG(size, 1+size%3, 1+size%4, 0.3, topoSeed); err != nil {
				t.Fatal(err)
			}
		case 1:
			g = gen.RandomUPPDAG(size, 3*size, topoSeed)
		default:
			g = gen.RandomDAG(size, 2*size, topoSeed)
		}
		pool := route.AllToAll(g)
		if cut > 0 && g.NumArcs() > 0 {
			if err := g.FailArc(digraph.ArcID(int(cut-1) % g.NumArcs())); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(reqSeed))
		reqs := make([]route.Request, 1+rng.Intn(40))
		for i := range reqs {
			if len(pool) == 0 || rng.Intn(16) == 0 {
				n := g.NumVertices()
				reqs[i] = route.Request{Src: digraph.Vertex(rng.Intn(n)), Dst: digraph.Vertex(rng.Intn(n))}
			} else {
				reqs[i] = pool[rng.Intn(len(pool))]
			}
		}
		policy := RoutingPolicy(policyByte % 3)
		net := &Network{Topology: g, Wavelengths: int(policyByte/3) % 8}

		plan := func(name string) {
			got, err := net.Provision(reqs, policy)
			requireSameAsSession(t, name, net, reqs, policy, got, err)
			if err != nil {
				return
			}
			res := &core.Result{Colors: got.Wavelengths, NumColors: got.NumLambda, Pi: got.Pi}
			if err := core.Verify(g, got.Paths, res); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Single-vertex paths carry no load and take wavelength 0, so
			// a load-free plan still uses one wavelength.
			if !cycles.HasInternalCycle(g) && got.NumLambda != max(got.Pi, 1) {
				t.Fatalf("%s: λ = %d, π = %d on a DAG without internal cycle", name, got.NumLambda, got.Pi)
			}
		}
		plan(policy.String())
		if g.NumArcs() == 0 {
			return
		}
		if cut > 0 {
			if err := g.RestoreArc(digraph.ArcID(int(cut-1) % g.NumArcs())); err != nil {
				t.Fatal(err)
			}
		} else if err := g.FailArc(digraph.ArcID(uint64(reqSeed) % uint64(g.NumArcs()))); err != nil {
			t.Fatal(err)
		}
		plan(policy.String() + "/flipped")
	})
}
