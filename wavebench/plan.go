package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// plan-theorem1 plans seeded batches of requests from scratch, again
// and again: min-load batch routing, then the paper's Theorem-1
// coloring, at the size of the large/theorem1 entry of cmd/bench (the
// same 500-internal-vertex topology).
const (
	planInternal = 500
	planTopoSeed = 500
	planRequests = 5000
	// planSets request sets are planned in turn; the gated timings are
	// taken over their envelope (see envelope), so a run's figures rest
	// on several draws of the seed, not one.
	planSets = 8
	planTail = 0.9 // tail percentile of plan time: a run makes hundreds of calls, not thousands
)

type planRig struct {
	g    *digraph.Digraph
	net  *wdm.Network
	sets [][]route.Request
}

func buildPlan(seed int64) (*planRig, error) {
	g, err := gen.RandomNoInternalCycleDAG(planInternal, 8, 8, 0.2, planTopoSeed)
	if err != nil {
		return nil, err
	}
	pool := route.NewRouter(g).AllToAll()
	if len(pool) == 0 {
		return nil, fmt.Errorf("plan topology has no routable pair")
	}
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]route.Request, planSets)
	for s := range sets {
		sets[s] = make([]route.Request, planRequests)
		for i := range sets[s] {
			sets[s][i] = pool[rng.Intn(len(pool))]
		}
	}
	return &planRig{g: g, net: &wdm.Network{Topology: g}, sets: sets}, nil
}

func runPlan(cfg runConfig) (*record, error) {
	rec := newRecord()
	rig, setup, err := setupMedian(func() (*planRig, error) { return buildPlan(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	rec.set("setup_s", setup)

	untraced, traced := cfg.phases()
	var plan sample
	env := newEnvelope(planSets)
	calls, last, mark := rig.provisionLoop(rec, untraced, &plan, env)
	if last == nil {
		return rec, nil // the first solve failed its checks
	}
	rec.set("plan_p50_ms", plan.q(0.5)/1e6)
	rec.set("plan_p90_ms", plan.q(planTail)/1e6)
	// The gated timings: each set's fastest call; the tail is the
	// slowest set's.
	fast := env.sample()
	rec.set("op_p50_us", fast.q(0.5)/1e3)
	rec.set("op_tail_us", fast.q(1)/1e3)
	rec.set("ops_per_s", float64(fast.n()*planRequests)/(fast.sum()/1e9))
	rec.set("ok_ratio", 1) // a solve that fails its checks fails the run
	rec.set("lambda_over_pi", float64(last.NumLambda)/float64(last.Pi))
	rec.note("plan", &plan)
	rec.Attempted = calls

	if cfg.traced && len(rec.Violations) == 0 {
		rec.layerRuntime(mark, calls*planRequests)
		if err := rig.tracedPhase(rec, cfg, traced, plan.q(0.5)); err != nil {
			return nil, err
		}
	}
	// The heap holds the topology, the requests and the last plan.
	rec.set("heap_mib", heapMiB())
	runtime.KeepAlive(rig)
	runtime.KeepAlive(last)
	return rec, nil
}

// provisionLoop plans the request sets in turn until d has passed and
// the tail percentile has enough samples, checking every solve: Theorem
// 1 must apply, λ must equal π, and the coloring must verify. It
// returns the call count and the last plan that passed.
func (rig *planRig) provisionLoop(rec *record, d time.Duration, plan *sample, env *envelope) (int64, *wdm.Provisioning, runtimeMark) {
	mark := markRuntime()
	var (
		calls int64
		last  *wdm.Provisioning
	)
	start := time.Now()
	for time.Since(start) < d || plan.n() < minSamples(planTail) || calls%planSets != 0 {
		set := int(calls % planSets)
		t := time.Now()
		prov, err := rig.net.Provision(rig.sets[set], wdm.RouteMinLoad)
		took := time.Since(t)
		plan.addDur(took)
		env.add(set, took)
		calls++
		if err != nil {
			rec.violate("Provision: %v", err)
			break
		}
		rig.check(rec, prov)
		if len(rec.Violations) > 0 {
			break
		}
		last = prov
	}
	return calls, last, mark
}

func (rig *planRig) check(rec *record, prov *wdm.Provisioning) {
	if prov.Method != core.MethodTheorem1 {
		rec.violate("coloring method %s, want %s", prov.Method, core.MethodTheorem1)
	}
	if prov.NumLambda != prov.Pi || prov.Pi == 0 {
		rec.violate("λ=%d ≠ π=%d on a DAG without internal cycle", prov.NumLambda, prov.Pi)
	}
	res := &core.Result{Colors: prov.Wavelengths, NumColors: prov.NumLambda, Pi: prov.Pi}
	if err := core.Verify(rig.g, prov.Paths, res); err != nil {
		rec.violate("core.Verify: %v", err)
	}
}

// tracedPhase times Provision of the first request set under a span,
// as the untraced phase did, and then the same plan split into its two
// layers — batch routing (Router.MinLoadSequential) and Theorem-1
// assignment (Network.Assign) — with a span around each. It ends by replaying one batch request by
// request (Router.MinLoadPath, LoadTracker.Add) for the per-request
// routing time. untracedP50 is the untraced plan median, in ns.
func (rig *planRig) tracedPhase(rec *record, cfg runConfig, d time.Duration, untracedP50 float64) error {
	reqs := rig.sets[0]
	origin := time.Now()
	log := newSpanLog(origin)
	router := route.NewRouter(rig.g)
	for req := int64(0); time.Since(origin) < d || log.dur("plan").n() < minSamples(0.5); req++ {
		t0 := time.Now()
		prov, err := rig.net.Provision(reqs, wdm.RouteMinLoad)
		log.record("plan", req, "", t0, time.Now())
		if err != nil {
			rec.violate("Provision: %v", err)
			return nil
		}
		rig.check(rec, prov)

		t0 = time.Now()
		fam, err := router.MinLoadSequential(reqs)
		t1 := time.Now()
		if err != nil {
			rec.violate("MinLoadSequential: %v", err)
			return nil
		}
		prov, err = rig.net.Assign(fam)
		t2 := time.Now()
		if err != nil {
			rec.violate("Assign: %v", err)
			return nil
		}
		log.record("route.batch", req, "split", t0, t1)
		log.record("theorem1.assign", req, "split", t1, t2)
		log.record("split", req, "", t0, t2)
		rig.check(rec, prov)
	}

	tracker := load.NewTracker(rig.g)
	for i, q := range reqs {
		t0 := time.Now()
		p, err := router.MinLoadPath(q, tracker)
		t1 := time.Now()
		if err != nil {
			rec.violate("MinLoadPath: %v", err)
			return nil
		}
		tracker.Add(p)
		log.record("route.minload", int64(i), "replay", t0, t1)
	}

	rec.layer("route.batch_ms_p50", log.dur("route.batch").q(0.5)/1e6)
	rec.layer("theorem1.assign_ms_p50", log.dur("theorem1.assign").q(0.5)/1e6)
	rec.layer("route.minload_ns_p50", log.dur("route.minload").q(0.5))
	rec.layer("route.minload_ns_p99", log.dur("route.minload").q(0.99))
	rec.layer("bench.trace_overhead_pct", overheadPct(untracedP50, log.dur("plan").q(0.5)))
	return log.write(cfg.traceDir, "plan-theorem1", cfg.seed)
}
