package main

import (
	"container/heap"
	"errors"
	"math/rand"
	"sort"
	"time"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// churn-giant drives ShardedEngine.ApplyBatchInto in a closed loop of
// fixed-size batches on the giant P=8 topology of cmd/bench (eight
// Theorem-1 parts glued into one 605-vertex component plus a satellite),
// bypassing internal/serve. The engine routes by minimum load under a
// wavelength budget, and fiber cuts and repairs land between batches.
const (
	churnParts     = 8
	churnPartSize  = 64
	churnTopoSeed  = 53
	churnLocalFrac = 0.9
	churnPoolSize  = 8000
	// churnPoolSeed fixes the request pool with the topology: which 8000
	// pairs exist shapes the work more than anything else, so it is part
	// of the workload, and the seed draws the trace and the faults.
	churnPoolSeed = 57
	// churnLive is the working set of live paths. At 5000 the engine's
	// state outgrew the processor caches, and a batch's cost followed the
	// neighbours' memory traffic on a shared host: the fastest repetition
	// of the same batches moved by up to half from one minute to the
	// next. At 1000 it held within 5%.
	churnLive  = 1000
	churnBatch = 256
	// churnBudget sits in the range of the load π (16-23) an unbudgeted
	// engine reaches at 1000 live paths of this pool under the cuts.
	// Region lanes admit against w minus the overlay slice (w/4), so
	// about 5% of adds block, most of them in the overlay lanes.
	churnBudget = 20
	// Fault process, in churn events: each arc is cut on average once
	// every churnMTBF events and repaired churnMTTR events later, about
	// one cut per batch across the 2042 arcs.
	churnMTBF    = 400_000
	churnMTTR    = 2_000
	churnHorizon = 4_000_000
	// churnWindow is the number of events the ratios (block, λ/π,
	// restored) are taken over. Fixing it makes them a function of the
	// seed alone, so they repeat exactly from run to run; the timings
	// use every event of the run.
	churnWindow = 200_000
	churnTail   = 0.99
	// The untraced loop repeats the start of churnStreams traces, each
	// from a fresh rig, so every repetition of a stream does the same
	// work, and the gated timings are taken over the envelope (see
	// envelope) of each stream's first churnStretch batches. Short
	// stretches give many repetitions, and so a fastest run of each
	// batch, on a host whose neighbours come and go; several streams
	// keep the figures from resting on one stretch of one trace, whose
	// batches cost a tenth more or less than another seed's. The first
	// repetition runs on until the ratio window is complete;
	// churnMinReps is the fewest repetitions a run makes of each stream.
	churnStreams = 8
	churnStretch = 512
	churnMinReps = 3
	fastTail     = 0.9 // tail percentile over the stretch's batches
	// churnWorkers is the engine's worker count. With one worker per
	// processor of a two-processor shared host, a batch's time followed
	// whichever processor the neighbours held; one worker reconciles the
	// lanes in turn, at the same speed on a quiet host.
	churnWorkers = 1
	// replayCap bounds the ops the traced run replays through the
	// unsharded layer stack.
	replayCap = 50_000
)

// giantTopology builds the fixed churn topology and the vertex groups of
// its glued parts (LocalityRequestPool's locality classes).
func giantTopology() (*digraph.Digraph, [][]digraph.Vertex, error) {
	parts := make([]*digraph.Digraph, churnParts)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(churnPartSize, 6, 6, 0.2, churnTopoSeed+int64(i))
		if err != nil {
			return nil, nil, err
		}
		parts[i] = g
	}
	glued, groups, err := gen.GlueChain(parts...)
	if err != nil {
		return nil, nil, err
	}
	sat, err := gen.RandomNoInternalCycleDAG(12, 2, 2, 0.2, churnTopoSeed+1000)
	if err != nil {
		return nil, nil, err
	}
	// The glued component takes the first identifiers of the union, so
	// the groups stay valid on the combined topology.
	g, _ := gen.DisjointUnion(gen.Instance{G: glued}, gen.Instance{G: sat})
	return g, groups, nil
}

// ── M/M/∞ churn trace ─────────────────────────────────────────────────

// churnOp is one trace event: an arrival (add, with its request) or the
// departure of arrival seq.
type churnOp struct {
	add bool
	seq int
	req route.Request
}

type departure struct {
	t   float64
	seq int
}

type departureHeap []departure

func (h departureHeap) Len() int           { return len(h) }
func (h departureHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h departureHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x any)        { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// churnTrace is an M/M/∞ event stream: unit-rate Poisson arrivals drawn
// from a request pool, each holding for an exponential time of mean
// hold, so the live set settles around hold requests.
type churnTrace struct {
	rng  *rand.Rand
	pool []route.Request
	hold float64
	now  float64
	dep  departureHeap
	seq  int
}

func (d *churnTrace) next() churnOp {
	arrive := d.now + d.rng.ExpFloat64()
	if len(d.dep) > 0 && d.dep[0].t < arrive {
		ev := heap.Pop(&d.dep).(departure)
		d.now = ev.t
		return churnOp{seq: ev.seq}
	}
	d.now = arrive
	return d.arrival()
}

// arrival draws one arrival at the current time. Called hold times
// before the first next, it starts the trace in its steady state: the
// live set of M/M/∞ is already full, and exponential holds are
// memoryless.
func (d *churnTrace) arrival() churnOp {
	seq := d.seq
	d.seq++
	heap.Push(&d.dep, departure{t: d.now + d.rng.ExpFloat64()*d.hold, seq: seq})
	return churnOp{add: true, seq: seq, req: d.pool[d.rng.Intn(len(d.pool))]}
}

// ── Rig ───────────────────────────────────────────────────────────────

type churnRig struct {
	g      *digraph.Digraph
	eng    *wdm.ShardedEngine
	trace  *churnTrace
	faults []gen.FaultEvent
	next   int // next fault event
	epoch  int // completed passes over the fault schedule

	events int             // trace events staged so far: the fault clock
	live   map[int]liveReq // accepted arrivals by trace seq
	// Batch staging: every batch holds churnBatch ops. A departure whose
	// arrival is still staged has no id until the batch applies, so its
	// remove is carried into the next batch.
	ops     []wdm.BatchOp
	seqs    []int
	pending map[int]bool
	carried []int // trace seqs of departures carried to the next batch
	results []wdm.BatchResult

	// replay, when non-nil, records the applied ops of the traced
	// phase for the unsharded replay.
	replay *[]replayOp
}

func buildChurn(seed int64) (*churnRig, error) {
	g, groups, err := giantTopology()
	if err != nil {
		return nil, err
	}
	pairs := gen.LocalityRequestPool(g, groups, churnLocalFrac, churnPoolSize, churnPoolSeed)
	pool := make([]route.Request, len(pairs))
	for i, p := range pairs {
		pool[i] = route.Request{Src: p[0], Dst: p[1]}
	}
	faults, err := gen.FaultSchedule(g, churnMTBF, churnMTTR, churnHorizon, seed+1)
	if err != nil {
		return nil, err
	}
	net := &wdm.Network{Topology: g}
	eng, err := net.NewShardedEngine(
		wdm.WithShardWorkers(churnWorkers),
		wdm.WithShardSessionOptions(wdm.WithRoutingPolicy(wdm.RouteMinLoad)),
		wdm.WithEngineWavelengthBudget(churnBudget))
	if err != nil {
		return nil, err
	}
	rig := &churnRig{
		g:       g,
		eng:     eng,
		trace:   &churnTrace{rng: rand.New(rand.NewSource(seed + 2)), pool: pool, hold: float64(churnLive)},
		faults:  faults,
		live:    make(map[int]liveReq, churnLive),
		ops:     make([]wdm.BatchOp, 0, churnBatch),
		seqs:    make([]int, 0, churnBatch),
		pending: make(map[int]bool, churnBatch),
	}
	var c churnCounts
	for i := 0; i < churnLive; i++ {
		rig.stage(rig.trace.arrival(), &c, nil)
	}
	rig.flush(&c, nil)
	if c.failed > 0 {
		return nil, errors.New("prefill: unexpected engine errors")
	}
	return rig, nil
}

type liveReq struct {
	id  wdm.ShardedID
	req route.Request
}

// churnCounts accumulates one phase's outcomes.
type churnCounts struct {
	attempted, failed   int64
	batches             int
	batch               sample    // ApplyBatchInto ns
	fast, step          *envelope // batch and whole-step ns by batch index, when kept
	storm               sample    // FailArc ns
	affected, restored  int64
	parked, retries     int64
	cuts, revived       int64
	lambdaPi            sample
	publishes           sample // snapshot Seq advance per batch
	inWindow            bool   // counting toward the window ratios
	wAdds, wBlocked     int64
	wAffected, wRestore int64
}

// stage adds one trace event to the batch under construction.
func (r *churnRig) stage(op churnOp, c *churnCounts, log *spanLog) {
	if op.add {
		r.pending[op.seq] = true
		r.ops = append(r.ops, wdm.AddOp(op.req))
		r.seqs = append(r.seqs, op.seq)
	} else if r.pending[op.seq] {
		r.carried = append(r.carried, op.seq)
	} else {
		r.stageRemove(op.seq)
	}
	if len(r.ops) >= churnBatch {
		r.flush(c, log)
	}
}

// stageRemove stages the departure of an applied arrival.
func (r *churnRig) stageRemove(seq int) {
	l, ok := r.live[seq]
	if !ok {
		return // the arrival was blocked: it holds nothing
	}
	delete(r.live, seq)
	r.ops = append(r.ops, wdm.RemoveOp(l.id))
	r.seqs = append(r.seqs, seq)
}

// flush applies the staged batch, files its results and stages the
// departures carried past it. Those name arrivals of this batch, fewer
// than churnBatch, so they never fill the next batch alone.
func (r *churnRig) flush(c *churnCounts, log *spanLog) {
	if len(r.ops) == 0 {
		return
	}
	t0 := time.Now()
	r.results = r.eng.ApplyBatchInto(r.ops, r.results)
	t1 := time.Now()
	c.batch.addDur(t1.Sub(t0))
	if c.fast != nil {
		c.fast.add(c.batches, t1.Sub(t0))
	}
	log.record("engine.apply_batch", int64(c.batches), "", t0, t1)
	c.batches++
	for k, res := range r.results {
		c.attempted++
		op := r.ops[k]
		if op.Kind != wdm.BatchAdd {
			if res.Err != nil {
				c.failed++
			} else if r.replay != nil && len(*r.replay) < replayCap {
				*r.replay = append(*r.replay, replayOp{seq: r.seqs[k]})
			}
			continue
		}
		if c.inWindow {
			c.wAdds++
		}
		var nr route.ErrNoRoute
		switch {
		case res.Err == nil:
			r.live[r.seqs[k]] = liveReq{res.ID, op.Req}
			if r.replay != nil && len(*r.replay) < replayCap {
				*r.replay = append(*r.replay, replayOp{add: true, seq: r.seqs[k], req: op.Req})
			}
		case errors.Is(res.Err, wdm.ErrBudgetExceeded):
			if c.inWindow {
				c.wBlocked++
			}
		case errors.As(res.Err, &nr):
			// A cut left the pair without a live route: the network's
			// answer, not a failure.
		default:
			c.failed++
		}
	}
	r.ops, r.seqs = r.ops[:0], r.seqs[:0]
	clear(r.pending)
	for _, seq := range r.carried {
		r.stageRemove(seq)
	}
	r.carried = r.carried[:0]
}

// faultsDue applies the fault events due by the current event clock,
// checking every storm, and wraps the schedule around when it runs
// out (all arcs healed, clock restarted).
func (r *churnRig) faultsDue(rec *record, c *churnCounts, log *spanLog) {
	clock := float64(r.events - r.epoch*churnHorizon)
	for r.next < len(r.faults) && r.faults[r.next].At <= clock {
		ev := r.faults[r.next]
		r.next++
		t0 := time.Now()
		if ev.Restore {
			n, err := r.eng.RestoreArc(ev.Arc)
			log.record("survive.restore_arc", int64(r.next), "", t0, time.Now())
			if err != nil {
				rec.violate("RestoreArc(%d): %v", ev.Arc, err)
				return
			}
			c.revived += int64(n)
			continue
		}
		rep, err := r.eng.FailArc(ev.Arc)
		t1 := time.Now()
		log.record("survive.fail_arc", int64(r.next), "", t0, t1)
		if err != nil {
			rec.violate("FailArc(%d): %v", ev.Arc, err)
			return
		}
		c.storm.addDur(t1.Sub(t0))
		if rep.Affected != rep.Restored+rep.Parked {
			rec.violate("storm on arc %d: affected %d ≠ restored %d + parked %d", ev.Arc, rep.Affected, rep.Restored, rep.Parked)
		}
		c.cuts++
		c.affected += int64(rep.Affected)
		c.restored += int64(rep.Restored)
		c.parked += int64(rep.Parked)
		c.retries += int64(rep.Retries)
		if c.inWindow {
			c.wAffected += int64(rep.Affected)
			c.wRestore += int64(rep.Restored)
		}
	}
	if r.next >= len(r.faults) && clock >= churnHorizon {
		for a := 0; a < r.g.NumArcs(); a++ {
			if r.g.ArcFailed(digraph.ArcID(a)) {
				if _, err := r.eng.RestoreArc(digraph.ArcID(a)); err != nil {
					rec.violate("RestoreArc(%d): %v", a, err)
					return
				}
			}
		}
		r.next = 0
		r.epoch++
	}
}

// sample reads the published snapshot after a batch: λ must stay within
// the budget at every publication; λ/π and the publication count feed
// the metrics.
func (r *churnRig) sampleSnapshot(rec *record, c *churnCounts, lastSeq *uint64, log *spanLog) {
	t0 := time.Now()
	s := r.eng.Snapshot()
	lam, err := s.NumLambda()
	pi, seq := s.Pi(), s.Seq()
	s.Release()
	log.record("snapshot.sample", int64(c.batches), "", t0, time.Now())
	if err != nil {
		rec.violate("snapshot λ: %v", err)
		return
	}
	if lam > churnBudget {
		rec.violate("λ=%d past budget %d at publication %d", lam, churnBudget, seq)
	}
	if c.inWindow && pi > 0 {
		c.lambdaPi.add(float64(lam) / float64(pi))
	}
	if *lastSeq > 0 {
		c.publishes.add(float64(seq - *lastSeq))
	}
	*lastSeq = seq
}

// phase runs the closed loop for d, and past d until the window of
// ratio events is complete (when window is set) and it has applied at
// least minBatches batches. A step is one batch staged and
// applied, the snapshot sampled and the faults due applied; fast and
// step, when not nil, keep the batch and step times by batch index.
func (r *churnRig) phase(rec *record, d time.Duration, window bool, minBatches int, log *spanLog, fast, step *envelope) *churnCounts {
	t0 := time.Now()
	c := &churnCounts{inWindow: window, fast: fast, step: step}
	start := r.events
	var lastSeq uint64
	for time.Since(t0) < d || (window && c.inWindow) || c.batches < minBatches {
		s0 := time.Now()
		for n := c.batches; c.batches == n; r.events++ {
			r.stage(r.trace.next(), c, log)
		}
		r.sampleSnapshot(rec, c, &lastSeq, log)
		r.faultsDue(rec, c, log)
		if c.step != nil {
			c.step.add(c.batches-1, time.Since(s0))
		}
		if c.inWindow && r.events-start >= churnWindow {
			c.inWindow = false
		}
		if len(rec.Violations) > 0 {
			break
		}
	}
	return c
}

func runChurn(cfg runConfig) (*record, error) {
	rec := newRecord()
	rig, setup, err := setupMedian(
		func() (*churnRig, error) { return buildChurn(cfg.seed) },
		func(r *churnRig) { r.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer func() { rig.eng.Close() }()
	rec.set("setup_s", setup)

	// Repeat the streams' stretches in turn, each from a fresh rig,
	// until the untraced time has passed. The ratios come from the first
	// repetition, the only one that runs the whole window.
	untraced, traced := cfg.phases()
	mark := markRuntime()
	var (
		fast, step [churnStreams]*envelope
		all        churnCounts // counts and timings of every repetition
		first      *churnCounts
		busy       time.Duration // wall time in the stretches
	)
	for k := range fast {
		fast[k], step[k] = newEnvelope(churnStretch), newEnvelope(churnStretch)
	}
	start := time.Now()
	for reps := 0; reps < churnMinReps*churnStreams || time.Since(start) < untraced || reps%churnStreams != 0; reps++ {
		k := reps % churnStreams
		if reps > 0 {
			// Stream k's seed; stream 0's is the run's own.
			next, err := buildChurn(cfg.seed + int64(k)*1_000_000)
			if err != nil {
				return nil, err
			}
			rig.eng.Close()
			rig = next
		}
		t0 := time.Now()
		c := rig.phase(rec, 0, reps == 0, churnStretch, nil, fast[k], step[k])
		busy += time.Since(t0)
		if first == nil {
			first = c
		}
		all.attempted += c.attempted
		all.failed += c.failed
		all.batch.v = append(all.batch.v, c.batch.v...)
		all.storm.v = append(all.storm.v, c.storm.v...)
		if rig.check(rec); len(rec.Violations) > 0 {
			return rec, nil
		}
	}
	ops := all.attempted
	rec.Attempted, rec.Failed = all.attempted, all.failed
	rec.set("events_per_s", float64(ops)/busy.Seconds())
	rec.set("batch_p50_us", all.batch.q(0.5)/1e3)
	rec.set("batch_p99_us", all.batch.q(churnTail)/1e3)
	// The gated timings: each batch's fastest repetition, over every
	// stream; every step holds churnBatch ops.
	var fastBatch, fastStep sample
	for k := range fast {
		fastBatch.v = append(fastBatch.v, fast[k].sample().v...)
		fastStep.v = append(fastStep.v, step[k].sample().v...)
	}
	rec.set("op_p50_us", fastBatch.q(0.5)/1e3)
	rec.set("op_tail_us", fastBatch.q(fastTail)/1e3)
	rec.set("ops_per_s", float64(fastStep.n()*churnBatch)/(fastStep.sum()/1e9))
	rec.set("error_ratio", float64(all.failed)/float64(ops))
	rec.set("ok_ratio", 1-float64(all.failed)/float64(ops))
	rec.set("block_ratio", ratio(first.wBlocked, first.wAdds))
	rec.set("lambda_over_pi", first.lambdaPi.mean())
	rec.set("restored_ratio", ratio(first.wRestore, first.wAffected))
	rec.set("storm_p50_us", all.storm.q(0.5)/1e3)
	rec.note("batch", &all.batch)
	rec.note("batch_fast", &fastBatch)
	rec.note("storm", &all.storm)
	rec.note("lambda_over_pi", &first.lambdaPi)

	if cfg.traced {
		rec.layerRuntime(mark, ops)
		if err := rig.tracedPhase(rec, cfg, traced, float64(busy.Nanoseconds())/float64(ops)); err != nil {
			return nil, err
		}
		rig.check(rec)
	}
	rec.set("heap_mib", heapMiB())
	return rec, nil
}

// check verifies the engine's live assignment and its final λ against
// the budget.
func (r *churnRig) check(rec *record) {
	if err := r.eng.Verify(); err != nil {
		rec.violate("Verify: %v", err)
	}
	if lam, err := r.eng.NumLambda(); err != nil || lam > churnBudget {
		rec.violate("final λ=%d past budget %d (%v)", lam, churnBudget, err)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedPhase continues the churn with spans on, then replays the
// phase's applied adds and removes once through an unsharded stack of
// the public layer objects (see replay) for the layers that run inside
// the engine. untracedNsPerOp is the untraced phase's wall time per op.
func (r *churnRig) tracedPhase(rec *record, cfg runConfig, d time.Duration, untracedNsPerOp float64) error {
	origin := time.Now()
	log := newSpanLog(origin)
	warm := make([]replayOp, 0, len(r.live))
	for seq, l := range r.live {
		warm = append(warm, replayOp{add: true, seq: seq, req: l.req})
	}
	sort.Slice(warm, func(i, j int) bool { return warm[i].seq < warm[j].seq })
	ops := make([]replayOp, 0, replayCap)
	r.replay = &ops
	before := r.eng.Stats()
	t0 := time.Now()
	c := r.phase(rec, d, false, minSamples(churnTail), log, nil, nil)
	wall := time.Since(t0)
	r.replay = nil
	if len(rec.Violations) > 0 {
		return nil
	}
	st := r.eng.Stats()
	engineNs := c.batch.sum() / float64(c.attempted)
	rec.layer("engine.ns_per_op", engineNs)
	rec.layer("engine.overlay_share", ratio(int64(st.Overlay.Requests-before.Overlay.Requests), int64(st.Requests()-before.Requests())))
	rec.layer("engine.region_lanes", float64(st.RegionShards))
	if ol, err := r.eng.OverlayLambda(); err == nil {
		rec.layer("engine.overlay_lambda", float64(ol))
	}
	rec.layer("admission.region_reject_ratio", ratio(int64(st.Region.Rejected-before.Region.Rejected), int64(st.Region.Requests-before.Region.Requests)))
	rec.layer("admission.overlay_reject_ratio", ratio(int64(st.Overlay.Rejected-before.Overlay.Rejected), int64(st.Overlay.Requests-before.Overlay.Requests)))
	warmRecolors, coldRecolors := 0, 0
	for s := 0; s < r.eng.NumShards(); s++ {
		if w, c, ok := r.eng.ShardRecolorStats(s); ok {
			warmRecolors += w
			coldRecolors += c
		}
	}
	rec.layer("coloring.warm_recolors", float64(warmRecolors))
	rec.layer("coloring.cold_recolors", float64(coldRecolors))
	rec.layer("snapshot.publishes_per_batch", c.publishes.mean())
	rec.layer("survive.affected_per_cut", ratio(c.affected, c.cuts))
	rec.layer("survive.retries_per_cut", ratio(c.retries, c.cuts))
	rec.layer("survive.parked", float64(c.parked))
	rec.layer("survive.revived", float64(c.revived))
	rec.layer("bench.trace_overhead_pct", overheadPct(untracedNsPerOp, float64(wall.Nanoseconds())/float64(c.attempted)))

	g, _, err := giantTopology()
	if err != nil {
		return err
	}
	layerNs := replay(g, warm, ops, churnBudget, log)
	rec.layer("route.minload_ns_p50", log.dur("route.minload").q(0.5))
	rec.layer("route.minload_ns_p99", log.dur("route.minload").q(0.99))
	rec.layer("admission.check_ns_p50", log.dur("admission.check").q(0.5))
	rec.layer("coloring.add_ns_p50", log.dur("coloring.add").q(0.5))
	rec.layer("coloring.remove_ns_p50", log.dur("coloring.remove").q(0.5))
	// A replay estimate: the unsharded stack's layer time per op stands
	// in for the same layers inside the engine.
	rec.layer("engine.self_ns_per_op", engineNs-layerNs)
	return log.write(cfg.traceDir, "churn-giant", cfg.seed)
}
