package wdm

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// builtinAdmissions lists the built-in admission strategy values with
// the names the digest keys use.
var builtinAdmissions = []struct {
	name string
	a    AdmissionStrategy
}{
	{"reject", AdmissionReject},
	{"retry-alt-route", AdmissionRetryAltRoute},
	{"degrade", AdmissionDegrade},
}

// strategyDigests pins, per built-in routing policy × admission value,
// the sha256 prefix of the op stream a seeded budgeted churn produces on
// a Session and on a ShardedEngine: every op's id, path, wavelength,
// admission outcome and error class, then the final live set and the
// admission counters. The values were recorded when the strategies were
// still resolved by name, so they pin that resolving them by value
// changed no routing, admission or coloring decision.
var strategyDigests = map[string]string{
	"shortest/reject/session":          "0e2e1f7430cd1d2b",
	"shortest/reject/engine":           "8b9376e417fe5272",
	"shortest/retry-alt-route/session": "8c365cc5279b7cf3",
	"shortest/retry-alt-route/engine":  "dce2e5f52f7c5332",
	"shortest/degrade/session":         "4ebff34317b44db0",
	"shortest/degrade/engine":          "cc92ddd1daa84839",
	"min-load/reject/session":          "f198d38c1cbb6f4c",
	"min-load/reject/engine":           "434edecdc365658d",
	"min-load/retry-alt-route/session": "f198d38c1cbb6f4c",
	"min-load/retry-alt-route/engine":  "434edecdc365658d",
	"min-load/degrade/session":         "774622c2bbaf953e",
	"min-load/degrade/engine":          "49073e0440edf093",
	"upp/reject/session":               "42dff89e73580a50",
	"upp/reject/engine":                "342b3d159e6f4f42",
	"upp/retry-alt-route/session":      "42dff89e73580a50",
	"upp/retry-alt-route/engine":       "342b3d159e6f4f42",
	"upp/degrade/session":              "9990732001869810",
	"upp/degrade/engine":               "d396dba1839949e7",
}

// digestNetwork is the churn topology of a policy: a glued chain of
// Theorem-1 DAGs (it sub-shards at threshold 8) for shortest and
// min-load routing, a random UPP-DAG for UPP routing.
func digestNetwork(t *testing.T, p RoutingPolicy) *Network {
	if p == RouteUPP {
		return &Network{Topology: gen.RandomUPPDAG(24, 160, 7)}
	}
	return giantComponentNetwork(t, 3, 41)
}

// TestStrategyDigest replays the seeded churn of strategyDigests for
// every built-in routing policy and admission value.
func TestStrategyDigest(t *testing.T) {
	for _, p := range []RoutingPolicy{RouteShortest, RouteMinLoad, RouteUPP} {
		for _, adm := range builtinAdmissions {
			net := digestNetwork(t, p)
			for _, kind := range []string{"session", "engine"} {
				name := p.String() + "/" + adm.name + "/" + kind
				h := sha256.New()
				if kind == "session" {
					sessionChurnDigest(t, net, p, adm.a, h)
				} else {
					engineChurnDigest(t, net, p, adm.a, h)
				}
				got := fmt.Sprintf("%x", h.Sum(nil))[:16]
				if want := strategyDigests[name]; got != want {
					t.Errorf("%s: digest %s, want %s", name, got, want)
				}
			}
		}
	}
}

// sessionChurnDigest runs 600 seeded ops (add, remove, reroute) on a
// budgeted session and writes the op stream to h.
func sessionChurnDigest(t *testing.T, net *Network, p RoutingPolicy, a AdmissionStrategy, h hash.Hash) {
	s, err := net.NewSession(WithRoutingPolicy(p), WithAdmissionStrategy(a), WithWavelengthBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(net.Topology).AllToAll()
	rng := rand.New(rand.NewSource(int64(p) + 1))
	var live []SessionID
	for op := 0; op < 600; op++ {
		switch r := rng.Intn(20); {
		case r < 11 || len(live) == 0:
			id, adm, err := s.TryAdd(pool[rng.Intn(len(pool))])
			fmt.Fprintf(h, "add %d %+v %v", id, adm, err != nil)
			if err == nil && adm.Accepted {
				live = append(live, id)
				path, _ := s.Path(id)
				w, _ := s.Wavelength(id)
				fmt.Fprintf(h, " %v %d", path, w)
			}
		case r < 16:
			k := rng.Intn(len(live))
			err := s.Remove(live[k])
			live = append(live[:k], live[k+1:]...)
			fmt.Fprintf(h, "remove %v", err != nil)
		default:
			id := live[rng.Intn(len(live))]
			changed, err := s.Reroute(id)
			path, _ := s.Path(id)
			w, _ := s.Wavelength(id)
			fmt.Fprintf(h, "reroute %d %v %v %v %d", id, changed, err != nil, path, w)
		}
		fmt.Fprintln(h)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, id := range s.IDs() {
		path, _ := s.Path(id)
		w, _ := s.Wavelength(id)
		fmt.Fprintf(h, "live %d %v %d\n", id, path, w)
	}
	fmt.Fprintf(h, "stats %+v\n", s.AdmissionStats())
}

// engineChurnDigest runs 40 seeded batches of 16 ops on a budgeted engine
// (two-level where the topology sub-shards) and writes the op stream to
// h.
func engineChurnDigest(t *testing.T, net *Network, p RoutingPolicy, a AdmissionStrategy, h hash.Hash) {
	eng, err := net.NewShardedEngine(
		WithSubshardThreshold(8),
		WithShardWorkers(2),
		WithEngineWavelengthBudget(4),
		WithShardSessionOptions(WithRoutingPolicy(p), WithAdmissionStrategy(a)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(net.Topology).AllToAll()
	rng := rand.New(rand.NewSource(int64(p) + 11))
	var live []ShardedID
	for batch := 0; batch < 40; batch++ {
		ops := make([]BatchOp, 16)
		removed := map[int]bool{}
		for i := range ops {
			switch r := rng.Intn(20); {
			case r < 11 || len(live) == 0:
				ops[i] = AddOp(pool[rng.Intn(len(pool))])
			case r < 16:
				k := rng.Intn(len(live))
				if removed[k] {
					ops[i] = RerouteOp(live[k])
					continue
				}
				removed[k] = true
				ops[i] = RemoveOp(live[k])
			default:
				ops[i] = RerouteOp(live[rng.Intn(len(live))])
			}
		}
		results := eng.ApplyBatch(ops)
		next := live[:0:0]
		for k, id := range live {
			if !removed[k] {
				next = append(next, id)
			}
		}
		for i, r := range results {
			fmt.Fprintf(h, "%d %d %d %v %v %v\n", batch, ops[i].Kind, r.ID, r.Changed,
				r.Err != nil, errors.Is(r.Err, ErrBudgetExceeded))
			if ops[i].Kind == BatchAdd && r.Err == nil {
				next = append(next, r.ID)
			}
		}
		live = next
		for _, id := range live {
			path, _ := eng.Path(id)
			w, _ := eng.Wavelength(id)
			fmt.Fprintf(h, "live %d %v %d\n", id, path, w)
		}
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	fmt.Fprintf(h, "stats %+v %+v %+v\n", st.Plain, st.Region, st.Overlay)
}
