package wdm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/route"
)

// multiComponentNetwork builds a topology with several nontrivial
// weakly connected components (disjoint union of Theorem 1 DAGs).
func multiComponentNetwork(t testing.TB, comps int, seed int64) *Network {
	return &Network{Topology: opsFixture(t, opsFixtureID(opsUnion, comps, 12, opsEnds3), seed)}
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
