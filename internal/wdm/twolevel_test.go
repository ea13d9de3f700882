package wdm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// giantComponentNetwork glues several Theorem 1 DAGs into one weakly
// connected component: the layout component sharding cannot split, and
// the reason the two-level engine exists.
func giantComponentNetwork(t testing.TB, parts int, seed int64) *Network {
	return &Network{Topology: opsFixture(t, opsFixtureID(opsGlued, parts, 14, opsEnds3), seed)}
}

// twoLevelEngine opens a two-level engine on net and fails the test if
// the topology did not actually sub-shard.
func twoLevelEngine(t testing.TB, net *Network, opts ...ShardedOption) *ShardedEngine {
	t.Helper()
	eng, err := net.NewShardedEngine(append([]ShardedOption{WithSubshardThreshold(8)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.TwoLevel == 0 || st.RegionShards < 2 {
		t.Fatalf("fixture did not sub-shard: %+v", st)
	}
	return eng
}

// TestTwoLevelDispatch pins lane selection and the O(1) rejections on a
// mixed topology (one giant two-level component plus a small plain one).
func TestTwoLevelDispatch(t *testing.T) {
	giant := giantComponentNetwork(t, 3, 503)
	small, err := gen.RandomNoInternalCycleDAG(4, 1, 1, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := gen.DisjointUnion(gen.Instance{G: giant.Topology}, gen.Instance{G: small})
	net := &Network{Topology: topo}
	eng := twoLevelEngine(t, net)
	defer eng.Close()

	st := eng.Stats()
	if st.Components != 2 || st.TwoLevel != 1 {
		t.Fatalf("layout: %+v, want 2 components with 1 two-level", st)
	}
	regions := giant.Topology.PartitionRegions()
	pool := route.NewRouter(topo).AllToAll()
	giantN := giant.Topology.NumVertices()
	overlayIdx := int32(st.RegionShards) // shards: regions 0..R-1, overlay R, plain R+1
	sawRegion, sawOverlay := false, false
	for _, req := range pool {
		if int(req.Src) >= giantN || int(req.Dst) >= giantN {
			continue // plain-component traffic
		}
		id, err := eng.Add(req) // giant component: vertex ids coincide with component-local ids
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, confined := regions.CommonRegion(req.Src, req.Dst)
		if confined && id.Shard >= overlayIdx {
			t.Fatalf("co-region request %v landed in shard %d", req, id.Shard)
		}
		if !confined && id.Shard != overlayIdx {
			t.Fatalf("cross-region request %v landed in shard %d, want overlay %d", req, id.Shard, overlayIdx)
		}
		if confined {
			sawRegion = true
		} else {
			sawOverlay = true
		}
	}
	if !sawRegion || !sawOverlay {
		t.Fatalf("pool exercised region=%v overlay=%v", sawRegion, sawOverlay)
	}
	// Cross-component rejection stays O(1) ErrNoRoute.
	var noRoute route.ErrNoRoute
	_, err = eng.Add(route.Request{Src: 0, Dst: digraph.Vertex(topo.NumVertices() - 1)})
	if !errors.As(err, &noRoute) {
		t.Fatalf("cross-component Add: got %v, want ErrNoRoute", err)
	}
}

// TestTwoLevelDispatchSelfPairAtCutVertex pins where a src == dst add
// at a cut vertex lands: every region of the vertex could serve it, and
// dispatch picks the lane of its highest-numbered region.
func TestTwoLevelDispatchSelfPairAtCutVertex(t *testing.T) {
	net := giantComponentNetwork(t, 3, 503)
	eng := twoLevelEngine(t, net)
	defer eng.Close()

	c := eng.comps[0] // one component: vertex ids coincide with component-local ids
	cuts := 0
	for v := 0; v < net.Topology.NumVertices(); v++ {
		if !c.regions.IsCutVertex(digraph.Vertex(v)) {
			continue
		}
		cuts++
		want := int32(-1)
		for _, m := range c.regions.RegionsOf(digraph.Vertex(v)) {
			want = max(want, c.regionShards[m.Region].idx)
		}
		id, err := eng.Add(route.Request{Src: digraph.Vertex(v), Dst: digraph.Vertex(v)})
		if err != nil {
			t.Fatal(err)
		}
		if id.Shard != want {
			t.Fatalf("self pair at cut vertex %d landed in shard %d, want region lane %d", v, id.Shard, want)
		}
		p, err := eng.Path(id)
		if err != nil || p.NumArcs() != 0 || p.First() != digraph.Vertex(v) {
			t.Fatalf("self pair at cut vertex %d: path %v err %v", v, p, err)
		}
	}
	if cuts == 0 {
		t.Fatal("fixture has no cut vertex")
	}
}

// TestShardedIDMisuse feeds stale, generation-recycled, foreign-engine
// and unknown-shard ids through every mutating entry point and asserts
// clean per-op errors with the engine state untouched.
func TestShardedIDMisuse(t *testing.T) {
	net := giantComponentNetwork(t, 3, 601)
	eng := twoLevelEngine(t, net, WithShardWorkers(2))
	defer eng.Close()
	pool := route.NewRouter(net.Topology).AllToAll()
	rng := rand.New(rand.NewSource(23))

	var ids []ShardedID
	var reqs []route.Request
	for k := 0; k < 8; k++ {
		req := pool[rng.Intn(len(pool))]
		id, err := eng.Add(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		reqs = append(reqs, req)
	}

	// A foreign engine over the same topology, loaded far past this
	// engine's slot tables, so its high-slot ids cannot resolve here.
	foreign := twoLevelEngine(t, net, WithShardWorkers(1))
	defer foreign.Close()
	var foreignID ShardedID
	for k := 0; k < 64; k++ {
		id, err := foreign.Add(pool[rng.Intn(len(pool))])
		if err != nil {
			t.Fatal(err)
		}
		foreignID = id
	}

	// Stale: removed id. Recycled: the slot is reused under a new
	// generation by the next add on the same lane.
	stale := ids[0]
	if err := eng.Remove(stale); err != nil {
		t.Fatal(err)
	}
	ids = ids[1:]

	digest := func() (int, int, int, *Provisioning) {
		n, err := eng.NumLambda()
		if err != nil {
			t.Fatal(err)
		}
		prov, err := eng.Provisioning()
		if err != nil {
			t.Fatal(err)
		}
		return eng.Len(), eng.Pi(), n, prov
	}
	wantLen, wantPi, wantLambda, wantProv := digest()

	misuse := []struct {
		name string
		id   ShardedID
	}{
		{"stale-removed", stale},
		{"unknown-shard", ShardedID{Shard: int32(eng.NumShards() + 7), ID: stale.ID}},
		{"negative-shard", ShardedID{Shard: -1}},
		{"high-slot", ShardedID{Shard: ids[0].Shard, ID: SessionID(1 << 20)}},
		{"foreign-engine", foreignID},
		{"wrong-shard", ShardedID{Shard: (foreignID.Shard + 1) % int32(eng.NumShards()), ID: foreignID.ID}},
	}
	for _, m := range misuse {
		t.Run(m.name, func(t *testing.T) {
			if err := eng.Remove(m.id); err == nil {
				t.Fatal("Remove accepted a misused id")
			}
			if _, err := eng.Reroute(m.id); err == nil {
				t.Fatal("Reroute accepted a misused id")
			}
			results := eng.ApplyBatch([]BatchOp{RemoveOp(m.id), RerouteOp(m.id)})
			for i, res := range results {
				if res.Err == nil {
					t.Fatalf("batch op %d accepted a misused id", i)
				}
			}
			gotLen, gotPi, gotLambda, gotProv := digest()
			if gotLen != wantLen || gotPi != wantPi || gotLambda != wantLambda {
				t.Fatalf("aggregates moved: len %d→%d π %d→%d λ %d→%d",
					wantLen, gotLen, wantPi, gotPi, wantLambda, gotLambda)
			}
			if len(gotProv.Paths) != len(wantProv.Paths) {
				t.Fatalf("provisioning size moved: %d → %d", len(wantProv.Paths), len(gotProv.Paths))
			}
			for i := range wantProv.Paths {
				if !gotProv.Paths[i].Equal(wantProv.Paths[i]) || gotProv.Wavelengths[i] != wantProv.Wavelengths[i] {
					t.Fatalf("provisioning entry %d moved", i)
				}
			}
		})
	}

	// A batch mixing good and misused ops fails only the bad ones.
	results := eng.ApplyBatch([]BatchOp{
		AddOp(pool[0]),
		RemoveOp(stale),
	})
	if results[0].Err != nil {
		t.Fatalf("good op failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("misused op succeeded")
	}

	// Generation recycling: a slot freed by Remove and re-issued must
	// invalidate the old id even though the slot index matches.
	victim := ids[len(ids)-1]
	victimReq := reqs[len(reqs)-1] // re-adding it targets the victim's lane
	if err := eng.Remove(victim); err != nil {
		t.Fatal(err)
	}
	recycled := ShardedID{Shard: -1}
	for k := 0; k < 64; k++ {
		id, err := eng.Add(victimReq)
		if err != nil {
			t.Fatal(err)
		}
		if id.Shard == victim.Shard && uint32(id.ID) == uint32(victim.ID) {
			recycled = id
			break
		}
	}
	if recycled.Shard < 0 {
		t.Fatal("freed slot was not recycled within the probe budget")
	}
	if recycled.ID == victim.ID {
		t.Fatal("recycled slot re-issued the same generation")
	}
	if err := eng.Remove(victim); err == nil {
		t.Fatal("generation-recycled id still resolves")
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineClose checks the pool lifecycle: Close during in-flight
// batches is safe (exercised under -race -cpu=1,4 in CI), mutations
// after Close fail with ErrEngineClosed, queries keep answering, and
// Close is idempotent.
func TestEngineClose(t *testing.T) {
	net := giantComponentNetwork(t, 3, 701)
	eng := twoLevelEngine(t, net, WithShardWorkers(4))
	pool := route.NewRouter(net.Topology).AllToAll()

	const goroutines = 3
	var started, done sync.WaitGroup
	started.Add(goroutines)
	done.Add(goroutines)
	for gi := 0; gi < goroutines; gi++ {
		go func(gi int) {
			defer done.Done()
			rng := rand.New(rand.NewSource(int64(100 + gi)))
			var mine []ShardedID
			signalled := false
			// Batches larger than serialBatchThreshold, so Close races
			// against the pooled fan-out, not just the inline path.
			nops := 2 * serialBatchThreshold
			for {
				ops := make([]BatchOp, 0, nops)
				nRemove := 0
				for k := 0; k < nops; k++ {
					if nRemove < len(mine) && rng.Intn(3) == 0 {
						ops = append(ops, RemoveOp(mine[nRemove]))
						nRemove++
					} else {
						ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
					}
				}
				mine = mine[nRemove:]
				closed := false
				for i, res := range eng.ApplyBatch(ops) {
					if errors.Is(res.Err, ErrEngineClosed) {
						closed = true
						break
					}
					if res.Err != nil {
						t.Errorf("goroutine %d: %v", gi, res.Err)
						closed = true
						break
					}
					if ops[i].Kind == BatchAdd {
						mine = append(mine, res.ID)
					}
				}
				if !signalled {
					signalled = true
					started.Done() // at least one batch ran before Close
				}
				if closed {
					return
				}
			}
		}(gi)
	}
	started.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	done.Wait()

	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := eng.Add(pool[0]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Add after Close: %v, want ErrEngineClosed", err)
	}
	if err := eng.Remove(ShardedID{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Remove after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := eng.Reroute(ShardedID{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Reroute after Close: %v, want ErrEngineClosed", err)
	}
	for _, res := range eng.ApplyBatch([]BatchOp{AddOp(pool[0])}) {
		if !errors.Is(res.Err, ErrEngineClosed) {
			t.Fatalf("ApplyBatch after Close: %v, want ErrEngineClosed", res.Err)
		}
	}
	// Queries still answer on the frozen state.
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NumLambda(); err != nil {
		t.Fatal(err)
	}
	prov, err := eng.Provisioning()
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Paths) != eng.Len() {
		t.Fatalf("frozen provisioning has %d paths for %d live requests", len(prov.Paths), eng.Len())
	}
}
