package wdm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// multiComponentNetwork builds a topology with several nontrivial
// weakly connected components (disjoint union of Theorem 1 DAGs).
func multiComponentNetwork(t testing.TB, comps int, seed int64) *Network {
	t.Helper()
	parts := make([]gen.Instance, comps)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(12, 3, 3, 0.25, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = gen.Instance{G: g}
	}
	g, _ := gen.DisjointUnion(parts...)
	return &Network{Topology: g}
}

// TestShardedEquivalence pins the sharded engine to a single Session
// fed the identical op stream: routes must be exactly equal (the
// partition preserves arc order, so per-shard BFS/Dijkstra match the
// global ones), π must be exactly equal, λ within the shared slack, and
// every shard Verify-clean after every batch.
func TestShardedEquivalence(t *testing.T) {
	for _, policy := range []RoutingPolicy{RouteShortest, RouteMinLoad} {
		t.Run(policy.String(), func(t *testing.T) {
			net := multiComponentNetwork(t, 5, 101)
			const slack = 2
			single, err := net.NewSession(WithRoutingPolicy(policy), WithSlack(slack))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := net.NewShardedEngine(
				WithShardWorkers(4),
				WithShardSessionOptions(WithRoutingPolicy(policy), WithSlack(slack)),
			)
			if err != nil {
				t.Fatal(err)
			}
			if eng.NumShards() != 5 {
				t.Fatalf("NumShards = %d, want 5", eng.NumShards())
			}

			pool := route.NewRouter(net.Topology).AllToAll()
			rng := rand.New(rand.NewSource(7))

			type pairID struct {
				sid SessionID
				eid ShardedID
			}
			var live []pairID

			batches := 60
			if testing.Short() {
				batches = 15
			}
			for batch := 0; batch < batches; batch++ {
				// Build a batch referencing only pre-batch ids.
				nops := 1 + rng.Intn(20)
				ops := make([]BatchOp, 0, nops)
				var removedIdx []int
				removed := map[int]bool{}
				for k := 0; k < nops; k++ {
					if len(live) == 0 || len(removed) >= len(live) || (rng.Intn(3) != 0 && len(live) < 80) {
						ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
					} else {
						j := rng.Intn(len(live))
						for removed[j] {
							j = (j + 1) % len(live)
						}
						removed[j] = true
						removedIdx = append(removedIdx, j)
						ops = append(ops, RemoveOp(live[j].eid))
					}
				}
				results := eng.ApplyBatch(ops)
				// Replay the same events on the single session, in order.
				ri := 0
				for k, op := range ops {
					switch op.Kind {
					case BatchAdd:
						sid, err := single.Add(op.Req)
						if err != nil {
							t.Fatalf("batch %d: single Add: %v", batch, err)
						}
						if results[k].Err != nil {
							t.Fatalf("batch %d: sharded Add: %v", batch, results[k].Err)
						}
						live = append(live, pairID{sid, results[k].ID})
					case BatchRemove:
						j := removedIdx[ri]
						ri++
						if err := single.Remove(live[j].sid); err != nil {
							t.Fatalf("batch %d: single Remove: %v", batch, err)
						}
						if results[k].Err != nil {
							t.Fatalf("batch %d: sharded Remove: %v", batch, results[k].Err)
						}
					}
				}
				// Compact the live list (largest index first).
				for i := len(live) - 1; i >= 0; i-- {
					if removed[i] {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}

				if got, want := eng.Len(), single.Len(); got != want {
					t.Fatalf("batch %d: Len = %d, want %d", batch, got, want)
				}
				if got, want := eng.Pi(), single.Pi(); got != want {
					t.Fatalf("batch %d: π = %d, want %d", batch, got, want)
				}
				en, err := eng.NumLambda()
				if err != nil {
					t.Fatal(err)
				}
				sn, err := single.NumLambda()
				if err != nil {
					t.Fatal(err)
				}
				if diff := en - sn; diff > slack || diff < -slack {
					t.Fatalf("batch %d: sharded λ = %d vs single λ = %d, diverged past slack %d",
						batch, en, sn, slack)
				}
				if err := eng.Verify(); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				// Spot-check route equality through the id translation.
				for probes := 0; probes < 5 && len(live) > 0; probes++ {
					j := rng.Intn(len(live))
					ep, err := eng.Path(live[j].eid)
					if err != nil {
						t.Fatal(err)
					}
					sp, err := single.Path(live[j].sid)
					if err != nil {
						t.Fatal(err)
					}
					if !ep.Equal(sp) {
						t.Fatalf("batch %d: routes diverge: %v vs %v", batch, ep, sp)
					}
				}
			}

			// Merged provisioning: π/λ consistent with the aggregates, one
			// entry per live request, proper globally.
			prov, err := eng.Provisioning()
			if err != nil {
				t.Fatal(err)
			}
			if len(prov.Paths) != eng.Len() {
				t.Fatalf("merged provisioning has %d paths for %d live requests",
					len(prov.Paths), eng.Len())
			}
			if prov.Pi != eng.Pi() {
				t.Fatalf("merged π = %d, want %d", prov.Pi, eng.Pi())
			}
			// The merged assignment must be proper over the global topology
			// even though every shard colored independently from 0.
			res := &core.Result{Colors: prov.Wavelengths, NumColors: prov.NumLambda, Pi: prov.Pi}
			if err := core.Verify(net.Topology, prov.Paths, res); err != nil {
				t.Fatalf("merged provisioning not proper: %v", err)
			}
		})
	}
}

// TestShardedDeterminism runs one op stream through engines with 1 and
// 4 workers: the merged output must be byte-identical — shard
// completion order must not leak into results.
func TestShardedDeterminism(t *testing.T) {
	net := multiComponentNetwork(t, 6, 33)
	pool := route.NewRouter(net.Topology).AllToAll()

	run := func(workers int) *Provisioning {
		eng, err := net.NewShardedEngine(WithShardWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		var ops []BatchOp
		for k := 0; k < 200; k++ {
			ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
		}
		var evens []ShardedID
		for i, res := range eng.ApplyBatch(ops) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if i%2 == 0 {
				evens = append(evens, res.ID)
			}
		}
		rem := make([]BatchOp, len(evens))
		for i, id := range evens {
			rem[i] = RemoveOp(id)
		}
		for _, res := range eng.ApplyBatch(rem) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		prov, err := eng.Provisioning()
		if err != nil {
			t.Fatal(err)
		}
		return prov
	}

	p1, p4 := run(1), run(4)
	if p1.NumLambda != p4.NumLambda || p1.Pi != p4.Pi || p1.ADMs != p4.ADMs {
		t.Fatalf("aggregates diverge across worker counts: λ %d/%d π %d/%d ADMs %d/%d",
			p1.NumLambda, p4.NumLambda, p1.Pi, p4.Pi, p1.ADMs, p4.ADMs)
	}
	if len(p1.Paths) != len(p4.Paths) {
		t.Fatalf("path counts diverge: %d vs %d", len(p1.Paths), len(p4.Paths))
	}
	for i := range p1.Paths {
		if !p1.Paths[i].Equal(p4.Paths[i]) || p1.Wavelengths[i] != p4.Wavelengths[i] {
			t.Fatalf("entry %d diverges across worker counts", i)
		}
	}
}

// TestShardedDispatchErrors pins the O(1) dispatcher rejections.
func TestShardedDispatchErrors(t *testing.T) {
	net := multiComponentNetwork(t, 2, 77)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	label := net.Topology.ComponentLabels()
	var src, dst int
	for v := range label {
		if label[v] == 0 {
			src = v
		} else if label[v] == 1 {
			dst = v
		}
	}
	// Cross-component requests are unroutable — same answer a full
	// search gives, found without one.
	_, err = eng.Add(route.Request{Src: digraph.Vertex(src), Dst: digraph.Vertex(dst)})
	var noRoute route.ErrNoRoute
	if !errors.As(err, &noRoute) {
		t.Fatalf("cross-component Add: got %v, want ErrNoRoute", err)
	}
	if _, err := eng.Add(route.Request{Src: -1, Dst: 0}); err == nil {
		t.Fatal("out-of-range Add accepted")
	}
	if err := eng.Remove(ShardedID{Shard: 99}); err == nil {
		t.Fatal("unknown-shard Remove accepted")
	}
	if err := eng.Remove(ShardedID{Shard: 0, ID: 12345}); err == nil {
		t.Fatal("stale id Remove accepted")
	}
	// A batch with one bad op fails that op alone.
	results := eng.ApplyBatch([]BatchOp{
		AddOp(pool0(t, net)),
		AddOp(route.Request{Src: digraph.Vertex(src), Dst: digraph.Vertex(dst)}),
	})
	if results[0].Err != nil {
		t.Fatalf("good op failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("bad op succeeded")
	}
	// Intra-component but unroutable (directed): the error must name the
	// caller's global vertices, not the shard-local translation.
	r := route.NewRouter(net.Topology)
	n := net.Topology.NumVertices()
	found := false
	for u := 0; u < n && !found; u++ {
		for v := 0; v < n && !found; v++ {
			if u == v || label[u] != label[v] {
				continue
			}
			req := route.Request{Src: digraph.Vertex(u), Dst: digraph.Vertex(v)}
			if _, rerr := r.ShortestPath(req.Src, req.Dst); rerr == nil {
				continue
			}
			found = true
			_, aerr := eng.Add(req)
			var nr route.ErrNoRoute
			if !errors.As(aerr, &nr) {
				t.Fatalf("intra-component unroutable Add: got %v, want ErrNoRoute", aerr)
			}
			if nr.Req != req {
				t.Fatalf("error names %v, want the global request %v", nr.Req, req)
			}
		}
	}
	if !found {
		t.Fatal("no intra-component unroutable pair in the fixture")
	}
}

func pool0(t *testing.T, net *Network) route.Request {
	t.Helper()
	pool := route.NewRouter(net.Topology).AllToAll()
	if len(pool) == 0 {
		t.Fatal("no routable pairs")
	}
	return pool[0]
}

// TestShardedConcurrentStress hammers one engine from several
// goroutines at once — batches, aggregates, provisioning snapshots —
// under the race detector in CI (-race -cpu=1,4). Each goroutine
// removes only ids it added itself; the engine's mutex serialises
// batches, the in-batch fan-out runs on 4 workers.
func TestShardedConcurrentStress(t *testing.T) {
	net := multiComponentNetwork(t, 6, 55)
	eng, err := net.NewShardedEngine(WithShardWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(net.Topology).AllToAll()

	const goroutines = 4
	iters := 60
	if testing.Short() {
		iters = 15
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + gi)))
			var mine []ShardedID
			// Batches above serialBatchThreshold, so the stress runs
			// through the pooled fan-out rather than the inline path.
			nops := 2 * serialBatchThreshold
			for it := 0; it < iters; it++ {
				ops := make([]BatchOp, 0, nops)
				removeFrom := len(mine)
				nRemove := 0
				for k := 0; k < nops; k++ {
					if nRemove < removeFrom && rng.Intn(3) == 0 {
						ops = append(ops, RemoveOp(mine[nRemove]))
						nRemove++
					} else {
						ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
					}
				}
				mine = mine[nRemove:]
				for i, res := range eng.ApplyBatch(ops) {
					if res.Err != nil {
						errc <- res.Err
						return
					}
					if ops[i].Kind == BatchAdd {
						mine = append(mine, res.ID)
					}
				}
				switch it % 3 {
				case 0:
					eng.Pi()
				case 1:
					if _, err := eng.NumLambda(); err != nil {
						errc <- err
						return
					}
				case 2:
					if _, err := eng.Provisioning(); err != nil {
						errc <- err
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}
