// Benchmarks regenerating every figure/theorem of the paper (experiment
// ids E1–E12 from DESIGN.md). Each benchmark both measures the cost of
// the relevant pipeline and asserts the paper-predicted outcome, so
// `go test -bench=. -benchmem` doubles as the reproduction run.
package wavedag_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"wavedag"
	"wavedag/internal/check"
	"wavedag/internal/conflict"
	"wavedag/internal/core"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/route"
	"wavedag/internal/upp"
	"wavedag/internal/wdm"
)

// E1 / Figure 1: the pathological staircase has π = 2 and w = k.
func BenchmarkFig1Pathological(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		g, fam, err := gen.Fig1Staircase(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cg := conflict.FromFamily(g, fam)
				w := cg.ChromaticNumber()
				if load.Pi(g, fam) != 2 || w != k {
					b.Fatalf("π=2,w=%d expected, got w=%d", k, w)
				}
			}
		})
	}
}

// E2 / Figure 3: one internal cycle, C5 conflict graph, π = 2, w = 3.
func BenchmarkFig3InternalCycle(b *testing.B) {
	b.ReportAllocs()
	g, fam := gen.Fig3()
	for i := 0; i < b.N; i++ {
		cg := conflict.FromFamily(g, fam)
		if !cg.IsCycle() || cg.ChromaticNumber() != 3 || load.Pi(g, fam) != 2 {
			b.Fatal("Figure 3 shape lost")
		}
	}
}

// E3 / Theorem 1: w = π via the constructive algorithm on random
// internal-cycle-free instances of growing size, and on the
// plan-theorem1 shape: the 500-internal-vertex DAG with 5000 min-load
// routed requests. Each family's coloring is checked once, outside the
// timed loop, so the loop times the peel alone.
func BenchmarkTheorem1(b *testing.B) {
	type instance struct {
		name string
		g    *digraph.Digraph
		fam  dipath.Family
	}
	var cases []instance
	for _, cfg := range []struct{ nInt, paths int }{
		{15, 40}, {60, 250}, {120, 600}, {240, 1500},
	} {
		g, err := gen.RandomNoInternalCycleDAG(cfg.nInt, 4, 4, 0.2, int64(cfg.nInt))
		if err != nil {
			b.Fatal(err)
		}
		fam := gen.RandomWalkFamily(g, cfg.paths, 8, int64(cfg.paths))
		cases = append(cases, instance{fmt.Sprintf("n=%d/paths=%d", cfg.nInt, cfg.paths), g, fam})
	}
	g, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
	if err != nil {
		b.Fatal(err)
	}
	pool := route.NewRouter(g).AllToAll()
	rng := rand.New(rand.NewSource(1))
	reqs := make([]route.Request, 5000)
	for i := range reqs {
		reqs[i] = pool[rng.Intn(len(pool))]
	}
	fam, err := route.NewRouter(g).MinLoadSequential(reqs)
	if err != nil {
		b.Fatal(err)
	}
	cases = append(cases, instance{"plan/n=500/paths=5000-minload", g, fam})
	for _, c := range cases {
		res, err := core.ColorNoInternalCycle(c.g, c.fam)
		if err != nil {
			b.Fatal(err)
		}
		if err := check.WavelengthsWithinLoad(c.g, c.fam, res.Colors); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ColorNoInternalCycle(c.g, c.fam); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E4 / Theorem 2 (Figure 5): gadget with conflict graph C_{2k+1}.
func BenchmarkTheorem2(b *testing.B) {
	for _, k := range []int{3, 6, 12} {
		g, fam, err := gen.InternalCycleGadget(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cg := conflict.FromFamily(g, fam)
				if !cg.IsCycle() || cg.N() != 2*k+1 || cg.ChromaticNumber() != 3 {
					b.Fatal("gadget shape lost")
				}
			}
		})
	}
}

// E5 / Property 3: load equals conflict clique number on UPP-DAGs.
func BenchmarkUPPClique(b *testing.B) {
	b.ReportAllocs()
	g := gen.RandomUPPDAG(25, 120, 5)
	fam, err := gen.AllSourceSinkFamily(g)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pi := load.Pi(g, fam)
		om := conflict.FromFamily(g, fam).CliqueNumber()
		if pi != om {
			b.Fatalf("π=%d ω=%d", pi, om)
		}
	}
}

// E6 / Corollary 5: no induced K_{2,3} in UPP conflict graphs.
func BenchmarkUPPNoK23(b *testing.B) {
	b.ReportAllocs()
	g := gen.RandomUPPDAG(25, 120, 6)
	fam, err := gen.AllSourceSinkFamily(g)
	if err != nil {
		b.Fatal(err)
	}
	cg := conflict.FromFamily(g, fam)
	for i := 0; i < b.N; i++ {
		if _, _, found := cg.FindK23(); found {
			b.Fatal("induced K23 found")
		}
	}
}

// E7 / Theorem 6: constructive ⌈4π/3⌉ coloring on one-cycle UPP-DAGs.
func BenchmarkTheorem6(b *testing.B) {
	gH, famH := gen.Havet()
	workloads := []struct {
		name string
		fam  dipath.Family
	}{
		{"havet-x3", famH.Replicate(3)},
		{"havet-x8", famH.Replicate(8)},
	}
	gg, _, err := gen.InternalCycleGadget(4)
	if err != nil {
		b.Fatal(err)
	}
	all, err := gen.AllSourceSinkFamily(gg)
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range workloads {
		b.Run(wl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.ColorOneInternalCycleUPP(gH, wl.fam)
				if err != nil {
					b.Fatal(err)
				}
				if err := check.WavelengthsWithinBound(gH, wl.fam, res.Colors, 4, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("gadget-allpairs-x4", func(b *testing.B) {
		b.ReportAllocs()
		fam := all.Replicate(4)
		for i := 0; i < b.N; i++ {
			res, err := core.ColorOneInternalCycleUPP(gg, fam)
			if err != nil {
				b.Fatal(err)
			}
			if err := check.WavelengthsWithinBound(gg, fam, res.Colors, 4, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E8 / Theorem 7 (Figure 9): the replicated Havet instance reaches the
// ⌈4π/3⌉ bound exactly: w = ⌈8h/3⌉.
func BenchmarkTheorem7(b *testing.B) {
	g, fam := gen.Havet()
	for _, h := range []int{3, 6, 12} {
		rep := fam.Replicate(h)
		want := (8*h + 2) / 3
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.ColorOneInternalCycleUPP(g, rep)
				if err != nil {
					b.Fatal(err)
				}
				if res.NumColors != want {
					b.Fatalf("w=%d want %d", res.NumColors, want)
				}
			}
		})
	}
}

// E9: the C5 gadget replicated h times has χ = ⌈5h/2⌉ (ratio 5/4).
func BenchmarkC5Replicated(b *testing.B) {
	g, fam, err := gen.InternalCycleGadget(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []int{2, 3} {
		rep := fam.Replicate(h)
		want := (5*h + 1) / 2
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if chi := conflict.FromFamily(g, rep).ChromaticNumber(); chi != want {
					b.Fatalf("χ=%d want %d", chi, want)
				}
			}
		})
	}
}

// E10: disjoint unions with C independent internal cycles.
func BenchmarkMultiCycle(b *testing.B) {
	gh, fh := gen.Havet()
	for _, c := range []int{2, 4} {
		parts := make([]gen.Instance, c)
		for i := range parts {
			parts[i] = gen.Instance{G: gh, F: fh}
		}
		g, fam := gen.DisjointUnion(parts...)
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cycles.IndependentCycleCount(g) != c {
					b.Fatal("cycle count wrong")
				}
				cg := conflict.FromFamily(g, fam)
				if w := conflict.CountColors(cg.DSATURColoring()); w < 3 {
					b.Fatalf("w=%d", w)
				}
			}
		})
	}
}

// E11: rooted trees (arborescences): w = π on all-pairs workloads.
func BenchmarkRootedTree(b *testing.B) {
	for _, n := range []int{30, 120} {
		g := gen.RandomArborescence(n, int64(n))
		r, err := upp.NewRouter(g)
		if err != nil {
			b.Fatal(err)
		}
		fam := r.AllPairsFamily()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.ColorNoInternalCycle(g, fam)
				if err != nil {
					b.Fatal(err)
				}
				if err := check.WavelengthsWithinLoad(g, fam, res.Colors); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E12: coloring algorithm shoot-out on a fixed instance.
func BenchmarkColoringAlgorithms(b *testing.B) {
	g, err := gen.RandomNoInternalCycleDAG(40, 4, 4, 0.25, 3)
	if err != nil {
		b.Fatal(err)
	}
	fam := gen.RandomWalkFamily(g, 150, 7, 4)
	cg := conflict.FromFamily(g, fam)
	b.Run("theorem1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ColorNoInternalCycle(g, fam); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cg.GreedyColoring(nil)
		}
	})
	b.Run("dsatur", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cg.DSATURColoring()
		}
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cg.ChromaticNumber()
		}
	})
}

// Full RWA pipeline benchmark (routing + assignment) on a WDM network.
func BenchmarkRWAPipeline(b *testing.B) {
	topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
	if err != nil {
		b.Fatal(err)
	}
	net := &wdm.Network{Topology: topo, Wavelengths: 32}
	reqs := route.AllToAll(topo)
	if len(reqs) > 200 {
		reqs = reqs[:200]
	}
	for _, policy := range []wdm.RoutingPolicy{wdm.RouteShortest, wdm.RouteMinLoad} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := net.Provision(reqs, policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The plan-theorem1 shape: 5000 min-load requests on the
	// 500-internal-vertex large/theorem1 topology.
	b.Run("large", func(b *testing.B) {
		g, err := gen.RandomNoInternalCycleDAG(500, 8, 8, 0.2, 500)
		if err != nil {
			b.Fatal(err)
		}
		large := &wdm.Network{Topology: g}
		reqs := largePlanRequests(g, 5000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := large.Provision(reqs, wdm.RouteMinLoad); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// largePlanRequests draws count requests uniformly from the routable
// pairs of g with a fixed seed, as wavebench's plan-theorem1 draws its
// request sets.
func largePlanRequests(g *digraph.Digraph, count int) []route.Request {
	pool := route.NewRouter(g).AllToAll()
	rng := rand.New(rand.NewSource(1))
	reqs := make([]route.Request, count)
	for i := range reqs {
		reqs[i] = pool[rng.Intn(len(pool))]
	}
	return reqs
}

// Dynamic provisioning engine: steady-state churn (one teardown + one
// arrival per iteration) on a session.
func BenchmarkSessionChurn(b *testing.B) {
	topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
	if err != nil {
		b.Fatal(err)
	}
	net := &wdm.Network{Topology: topo}
	pool := route.AllToAll(topo)
	s, err := net.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	const liveTarget = 200
	ids := make([]wavedag.SessionID, 0, liveTarget)
	for i := 0; len(ids) < liveTarget; i++ {
		id, err := s.Add(pool[(i*31)%len(pool)])
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 17) % len(ids)
		if err := s.Remove(ids[k]); err != nil {
			b.Fatal(err)
		}
		id, err := s.Add(pool[(i*13)%len(pool)])
		if err != nil {
			b.Fatal(err)
		}
		ids[k] = id
	}
	b.StopTimer()
	if err := s.Verify(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedChurn measures the concurrent engine's per-event cost
// (batched remove+add pairs through ApplyBatch) on a multi-component
// topology, through the public API. Run with -cpu=1,4 to see the
// worker-count axis.
func BenchmarkShardedChurn(b *testing.B) {
	parts := make([]gen.Instance, 4)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(40, 8, 8, 0.2, int64(21+i))
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = gen.Instance{G: g}
	}
	topo, _ := gen.DisjointUnion(parts...)
	net := &wavedag.Network{Topology: topo}
	eng, err := net.NewShardedEngine()
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	pool := wavedag.NewRouter(topo).AllToAll()
	const liveTarget = 400
	ids := make([]wavedag.ShardedID, 0, liveTarget)
	for i := 0; len(ids) < liveTarget; i++ {
		id, err := eng.Add(pool[(i*31)%len(pool)])
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	const batch = 64
	ops := make([]wavedag.BatchOp, 0, batch)
	slots := make([]int, 0, batch/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 17) % len(ids)
		ops = append(ops, wavedag.RemoveOp(ids[k]), wavedag.AddOp(pool[(i*13)%len(pool)]))
		slots = append(slots, k)
		if len(ops) == batch || i == b.N-1 {
			results := eng.ApplyBatch(ops)
			for j, res := range results {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				if j%2 == 1 {
					ids[slots[j/2]] = res.ID
				}
			}
			ops, slots = ops[:0], slots[:0]
		}
	}
	b.StopTimer()
	if err := eng.Verify(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSubshardChurn measures the two-level engine's per-event cost
// on a giant glued component — one weakly connected component that
// PartitionComponents cannot split — under a 90%-region-local trace,
// with sub-sharding off (the whole component serialises onto one
// session) and on (region lanes fan out, cross-region traffic rides the
// overlay lane). Run with -cpu=1,4 for the worker axis.
func BenchmarkSubshardChurn(b *testing.B) {
	parts := make([]*wavedag.Graph, 4)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(24, 4, 4, 0.2, int64(91+i))
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = g
	}
	topo, partVerts, err := gen.GlueChain(parts...)
	if err != nil {
		b.Fatal(err)
	}
	pairs := gen.LocalityRequestPool(topo, partVerts, 0.9, 2000, 97)
	pool := make([]wavedag.Request, len(pairs))
	for i, p := range pairs {
		pool[i] = wavedag.Request{Src: p[0], Dst: p[1]}
	}
	for _, threshold := range []int{0, 16} {
		b.Run(fmt.Sprintf("subshard=%d", threshold), func(b *testing.B) {
			net := &wavedag.Network{Topology: topo}
			eng, err := net.NewShardedEngine(wavedag.WithSubshardThreshold(threshold))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			const liveTarget = 300
			ids := make([]wavedag.ShardedID, 0, liveTarget)
			for i := 0; len(ids) < liveTarget; i++ {
				id, err := eng.Add(pool[(i*31)%len(pool)])
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, id)
			}
			const batch = 32
			ops := make([]wavedag.BatchOp, 0, batch)
			slots := make([]int, 0, batch/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 17) % len(ids)
				ops = append(ops, wavedag.RemoveOp(ids[k]), wavedag.AddOp(pool[(i*13)%len(pool)]))
				slots = append(slots, k)
				if len(ops) == batch || i == b.N-1 {
					for j, res := range eng.ApplyBatch(ops) {
						if res.Err != nil {
							b.Fatal(res.Err)
						}
						if j%2 == 1 {
							ids[slots[j/2]] = res.ID
						}
					}
					ops, slots = ops[:0], slots[:0]
				}
			}
			b.StopTimer()
			if err := eng.Verify(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAdmissionChurn measures the budgeted engines on the
// blocking-probability workload: a hotspot-concentrated overload trace
// against a finite wavelength budget — the plain session and the
// budgeted sharded engine (batched through the pooled ApplyBatchInto).
// The rejection-cost pair (Theorem-1 precheck vs the color-and-rollback
// probe it replaces) is internal/wdm's BenchmarkAdmissionChurn, because
// the probe switch is unexported. Run with -cpu=1,4 for the worker axis.
func BenchmarkAdmissionChurn(b *testing.B) {
	topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
	if err != nil {
		b.Fatal(err)
	}
	pairs := gen.HotspotRequestPool(topo, 10, 0.7, 2000, 17)
	pool := make([]wavedag.Request, len(pairs))
	for i, p := range pairs {
		pool[i] = wavedag.Request{Src: p[0], Dst: p[1]}
	}
	const budget = 6

	b.Run("session", func(b *testing.B) {
		net := &wavedag.Network{Topology: topo}
		s, err := net.NewSession(wavedag.WithWavelengthBudget(budget))
		if err != nil {
			b.Fatal(err)
		}
		var ids []wavedag.SessionID
		for i := 0; i < 400; i++ {
			if id, adm, err := s.TryAdd(pool[(i*31)%len(pool)]); err != nil {
				b.Fatal(err)
			} else if adm.Accepted {
				ids = append(ids, id)
				// keep a bounded working set
				if len(ids) > 150 {
					if err := s.Remove(ids[0]); err != nil {
						b.Fatal(err)
					}
					ids = ids[1:]
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, adm, err := s.TryAdd(pool[(i*13)%len(pool)])
			if err != nil {
				b.Fatal(err)
			}
			if adm.Accepted {
				ids = append(ids, id)
			}
			if len(ids) > 150 {
				if err := s.Remove(ids[0]); err != nil {
					b.Fatal(err)
				}
				ids = ids[1:]
			}
		}
		b.StopTimer()
		if err := s.Verify(); err != nil {
			b.Fatal(err)
		}
		if n, err := s.NumLambda(); err != nil || n > budget {
			b.Fatalf("λ=%d past budget (%v)", n, err)
		}
	})

	b.Run("sharded", func(b *testing.B) {
		parts := make([]gen.Instance, 4)
		for i := range parts {
			g, err := gen.RandomNoInternalCycleDAG(40, 8, 8, 0.2, int64(21+i))
			if err != nil {
				b.Fatal(err)
			}
			parts[i] = gen.Instance{G: g}
		}
		g, _ := gen.DisjointUnion(parts...)
		spairs := gen.HotspotRequestPool(g, 16, 0.7, 2000, 27)
		spool := make([]wavedag.Request, len(spairs))
		for i, p := range spairs {
			spool[i] = wavedag.Request{Src: p[0], Dst: p[1]}
		}
		net := &wavedag.Network{Topology: g}
		eng, err := net.NewShardedEngine(wavedag.WithEngineWavelengthBudget(budget))
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		const batch = 32
		ops := make([]wavedag.BatchOp, 0, batch)
		var results []wavedag.BatchResult
		var ids []wavedag.ShardedID
		flush := func() {
			results = eng.ApplyBatchInto(ops, results)
			// Every staged op is an AddOp, so a nil error always carries the
			// new id (the zero ShardedID is a legitimate one: shard 0, slot 0).
			for _, res := range results {
				switch {
				case res.Err == nil:
					ids = append(ids, res.ID)
				case !errors.Is(res.Err, wavedag.ErrBudgetExceeded):
					b.Fatal(res.Err)
				}
			}
			ops = ops[:0]
			for len(ids) > 200 {
				if err := eng.Remove(ids[0]); err != nil {
					b.Fatal(err)
				}
				ids = ids[1:]
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops = append(ops, wavedag.AddOp(spool[(i*13)%len(spool)]))
			if len(ops) == batch || i == b.N-1 {
				flush()
			}
		}
		b.StopTimer()
		if err := eng.Verify(); err != nil {
			b.Fatal(err)
		}
		if n, err := eng.NumLambda(); err != nil || n > budget {
			b.Fatalf("λ=%d past budget (%v)", n, err)
		}
	})
}

// Survivability churn: fiber cuts interleaved with budgeted churn. Each
// iteration is one churn event; a deterministic MTBF/MTTR fault
// schedule cuts and repairs arcs as the clock advances, so restoration
// storms, dark parking and revival all run inside the timed loop.
func BenchmarkSurviveChurn(b *testing.B) {
	topo, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, 12)
	if err != nil {
		b.Fatal(err)
	}
	pairs := gen.HotspotRequestPool(topo, 10, 0.7, 2000, 17)
	pool := make([]wavedag.Request, len(pairs))
	for i, p := range pairs {
		pool[i] = wavedag.Request{Src: p[0], Dst: p[1]}
	}
	const budget = 8
	events, err := wavedag.NewFaultSchedule(topo, 8000, 100, 50_000, 71)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("session", func(b *testing.B) {
		net := &wavedag.Network{Topology: topo}
		s, err := net.NewSession(wavedag.WithWavelengthBudget(budget))
		if err != nil {
			b.Fatal(err)
		}
		var ids []wavedag.SessionID
		clock, next := 0.0, 0
		healAll := func() {
			for a := 0; a < topo.NumArcs(); a++ {
				if topo.ArcFailed(wavedag.ArcID(a)) {
					if _, err := s.RestoreArc(wavedag.ArcID(a)); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		step := func(i int) {
			for next < len(events) && events[next].At <= clock {
				ev := events[next]
				next++
				if ev.Restore {
					if _, err := s.RestoreArc(ev.Arc); err != nil {
						b.Fatal(err)
					}
				} else if _, err := s.FailArc(ev.Arc); err != nil {
					b.Fatal(err)
				}
			}
			if next >= len(events) {
				healAll()
				next, clock = 0, 0
			}
			clock++
			id, adm, err := s.TryAdd(pool[(i*13)%len(pool)])
			if err != nil {
				var nr route.ErrNoRoute
				if errors.As(err, &nr) {
					return // the cut disconnected the pair: blocked
				}
				b.Fatal(err)
			}
			if adm.Accepted {
				ids = append(ids, id)
			}
			if len(ids) > 150 {
				if err := s.Remove(ids[0]); err != nil {
					b.Fatal(err)
				}
				ids = ids[1:]
			}
		}
		for i := 0; i < 400; i++ {
			step(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
		b.StopTimer()
		healAll()
		if err := s.Verify(); err != nil {
			b.Fatal(err)
		}
		if n, err := s.NumLambda(); err != nil || n > budget {
			b.Fatalf("λ=%d past budget (%v)", n, err)
		}
	})

	b.Run("sharded", func(b *testing.B) {
		parts := make([]gen.Instance, 4)
		for i := range parts {
			g, err := gen.RandomNoInternalCycleDAG(40, 6, 6, 0.2, int64(21+i))
			if err != nil {
				b.Fatal(err)
			}
			parts[i] = gen.Instance{G: g}
		}
		g, _ := gen.DisjointUnion(parts...)
		spairs := gen.HotspotRequestPool(g, 16, 0.7, 2000, 27)
		spool := make([]wavedag.Request, len(spairs))
		for i, p := range spairs {
			spool[i] = wavedag.Request{Src: p[0], Dst: p[1]}
		}
		sevents, err := wavedag.NewFaultSchedule(g, 8000, 100, 50_000, 73)
		if err != nil {
			b.Fatal(err)
		}
		net := &wavedag.Network{Topology: g}
		eng, err := net.NewShardedEngine(wavedag.WithEngineWavelengthBudget(budget))
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		var ids []wavedag.ShardedID
		clock, next := 0.0, 0
		healAll := func() {
			for a := 0; a < g.NumArcs(); a++ {
				if g.ArcFailed(wavedag.ArcID(a)) {
					if _, err := eng.RestoreArc(wavedag.ArcID(a)); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		step := func(i int) {
			for next < len(sevents) && sevents[next].At <= clock {
				ev := sevents[next]
				next++
				if ev.Restore {
					if _, err := eng.RestoreArc(ev.Arc); err != nil {
						b.Fatal(err)
					}
				} else if _, err := eng.FailArc(ev.Arc); err != nil {
					b.Fatal(err)
				}
			}
			if next >= len(sevents) {
				healAll()
				next, clock = 0, 0
			}
			clock++
			id, err := eng.Add(spool[(i*13)%len(spool)])
			if err != nil {
				var nr route.ErrNoRoute
				if errors.As(err, &nr) || errors.Is(err, wavedag.ErrBudgetExceeded) {
					return // blocked arrival: holds nothing
				}
				b.Fatal(err)
			}
			ids = append(ids, id)
			if len(ids) > 150 {
				if err := eng.Remove(ids[0]); err != nil {
					b.Fatal(err)
				}
				ids = ids[1:]
			}
		}
		for i := 0; i < 400; i++ {
			step(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
		b.StopTimer()
		healAll()
		if err := eng.Verify(); err != nil {
			b.Fatal(err)
		}
		if n, err := eng.NumLambda(); err != nil || n > budget {
			b.Fatalf("λ=%d past budget (%v)", n, err)
		}
	})
}

// BenchmarkAdaptChurn measures the self-tuning layout on a drifting
// hotspot: a layered stage graph forming one giant biconnected block —
// a component the seed region decomposition cannot cut — under
// neighbourhood traffic whose hot window relocates every few hundred
// events. The static engine serialises the whole block onto one big
// region lane; the adaptive engine re-splits whichever stretch turns
// hot (topological-prefix cuts land between layers), shrinking the
// per-event search space to a few layers. The uniform load pair bounds
// the adaptive bookkeeping overhead when there is nothing to adapt to.
// Run with -cpu=1,4 for the worker axis.
func BenchmarkAdaptChurn(b *testing.B) {
	topo := gen.LayeredDAG(15, 20, 0.25, 77)
	const period = 500
	toReqs := func(pairs [][2]wavedag.Vertex) []wavedag.Request {
		pool := make([]wavedag.Request, len(pairs))
		for i, p := range pairs {
			pool[i] = wavedag.Request{Src: p[0], Dst: p[1]}
		}
		return pool
	}
	loads := []struct {
		name string
		pool []wavedag.Request
	}{
		{"drift", toReqs(gen.DriftingHotspotRequestPool(topo, 30, 0.95, 6000, period, 157))},
		{"uniform", toReqs(gen.DriftingHotspotRequestPool(topo, 30, 0, 6000, period, 158))},
	}
	cfg := wavedag.DefaultAdaptiveConfig()
	cfg.HysteresisBatches = 4
	cfg.ResplitShare = 0.5
	// Stop splitting while lanes are still an order of magnitude larger
	// than the hot window: tiny lanes would push window-straddling
	// traffic onto the serialised overlay and forfeit the win.
	cfg.MinRegionArcs = 256
	for _, load := range loads {
		for _, adaptive := range []bool{false, true} {
			mode := "static"
			// Min-load routing is the paper's load-balancing policy and
			// the one whose per-event cost scales with the lane graph —
			// exactly what re-splitting a hot region shrinks.
			opts := []wavedag.ShardedOption{
				wavedag.WithSubshardThreshold(64),
				wavedag.WithShardSessionOptions(wavedag.WithRoutingPolicy(wavedag.RouteMinLoad)),
			}
			if adaptive {
				mode = "adaptive"
				opts = append(opts, wavedag.WithRegionResplit(), wavedag.WithAdaptiveConfig(cfg))
			}
			b.Run(fmt.Sprintf("load=%s/mode=%s", load.name, mode), func(b *testing.B) {
				net := &wavedag.Network{Topology: topo}
				eng, err := net.NewShardedEngine(opts...)
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				pool := load.pool
				const liveTarget = 300
				ids := make([]wavedag.ShardedID, 0, liveTarget)
				next := 0 // sequential pool cursor: drift periods replay in order
				for len(ids) < liveTarget {
					id, err := eng.Add(pool[next%len(pool)])
					next++
					if err != nil {
						b.Fatal(err)
					}
					ids = append(ids, id)
				}
				const batch = 32
				ops := make([]wavedag.BatchOp, 0, batch)
				slots := make([]int, 0, batch/2)
				step := func(i int) {
					k := (i * 17) % len(ids)
					ops = append(ops, wavedag.RemoveOp(ids[k]), wavedag.AddOp(pool[next%len(pool)]))
					next++
					slots = append(slots, k)
					if len(ops) == batch {
						for j, res := range eng.ApplyBatch(ops) {
							if res.Err != nil {
								b.Fatal(res.Err)
							}
							if j%2 == 1 {
								ids[slots[j/2]] = res.ID
							}
						}
						ops, slots = ops[:0], slots[:0]
					}
				}
				// Warm through one full pool cycle so the hotspot has
				// visited every window and the adaptive engine has
				// settled into its re-split layout ("once drifted").
				for i := 0; next < len(pool); i++ {
					step(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(i)
				}
				b.StopTimer()
				if err := eng.Verify(); err != nil {
					b.Fatal(err)
				}
				st := eng.Stats()
				b.ReportMetric(float64(st.Resplits), "resplits")
				b.ReportMetric(float64(st.RegionShards), "lanes")
				b.ReportMetric(float64(st.OverlayLive), "overlay-live")
			})
		}
	}
}
