package main

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/serve"
	"wavedag/internal/wdm"
)

// serve-poisson offers an open-loop Poisson stream of writes to
// serve.Server in process — everything cmd/served does after JSON
// decoding — while one reader polls the lock-free snapshot the way
// /v1/stats does. The topology, server options and request deadline
// are cmd/served's defaults.
const (
	serveComponents = 4
	serveInternal   = 24
	serveTopoSeed   = 1
	serveLive       = 400
	// serveRate is a twentieth of the coalescer's closed-loop capacity
	// on this topology at this working set: four writers keeping 64
	// requests each in flight measured 620k-810k acked writes/s on a
	// 2-vCPU Intel Xeon VM. Batches close on the latency cap, not on
	// the batch size, so ack latency reads the coalescer's wait. At a
	// sixth of capacity, runs on that shared VM collapsed into shedding
	// whenever a neighbour took a processor; a twentieth leaves the
	// 4096-deep queue 100ms of slack.
	serveRate     = 40_000
	serveReroute  = 0.02 // share of writes that reroute a live request
	serveDeadline = 2 * time.Second
	serveTail     = 0.99
	// The reader polls in bursts of readerBurst, then sleeps readerPause
	// (about a millisecond: the host's timer floor). A reader that never
	// pauses allocates a Path per round at millions of rounds a second;
	// the collections that costs starve the coalescer into shedding.
	readerBurst = 200 * time.Microsecond
	readerPause = 200 * time.Microsecond
	// readerSpanEvery thins the traced reader's spans.
	readerSpanEvery = 16
)

type serveRig struct {
	eng  *wdm.ShardedEngine
	srv  *serve.Server
	pool []route.Request

	mu   sync.Mutex
	live []wdm.ShardedID // acked adds not yet removed
	// last is the newest acked add, for the reader's Path queries.
	last atomic.Pointer[wdm.ShardedID]
}

func buildServe(seed int64) (*serveRig, error) {
	parts := make([]gen.Instance, serveComponents)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(serveInternal, 3, 3, 0.25, serveTopoSeed+int64(i))
		if err != nil {
			return nil, err
		}
		parts[i] = gen.Instance{G: g}
	}
	g, _ := gen.DisjointUnion(parts...)
	pool := route.NewRouter(g).AllToAll()
	eng, err := (&wdm.Network{Topology: g}).NewShardedEngine()
	if err != nil {
		return nil, err
	}
	rig := &serveRig{eng: eng, pool: pool}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]wdm.BatchOp, serveLive)
	for i := range ops {
		ops[i] = wdm.AddOp(pool[rng.Intn(len(pool))])
	}
	for _, res := range eng.ApplyBatch(ops) {
		if res.Err != nil {
			eng.Close()
			return nil, res.Err
		}
		rig.live = append(rig.live, res.ID)
	}
	rig.srv, err = serve.New(eng,
		serve.WithMaxBatch(256),
		serve.WithLatencyCap(500*time.Microsecond),
		serve.WithQueueCapacity(4096),
		serve.WithServerRetry(3, 200*time.Microsecond, 10*time.Millisecond),
		serve.WithSeed(seed))
	if err != nil {
		eng.Close()
		return nil, err
	}
	rig.last.Store(&rig.live[len(rig.live)-1])
	return rig, nil
}

func (r *serveRig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.srv.Shutdown(ctx)
}

// inflight is one submitted request on its way to the collector.
type inflight struct {
	seq  int64
	due  time.Time
	kind serve.OpKind
	resp <-chan serve.Response
}

// servePhase is what one open-loop phase measured.
type servePhase struct {
	submitted, acked              int64
	shed, expired, panics, others int64
	budget                        int64 // budget rejections: excluded from errors
	ack                           sample
	windows                       []sample // ack latencies by second of due time
	origin                        time.Time
	lag                           sample
	depth                         sample
	reads                         int64
	lambdaPi                      float64 // mean over reader rounds
	wall                          time.Duration
	stats                         serve.ServerStats // server counters over the phase
	logs                          []*spanLog        // generator, collector, reader
}

func (p *servePhase) errors() int64 { return p.shed + p.expired + p.panics + p.others }

// phase offers the Poisson stream for d. The calling goroutine is the
// generator; one collector goroutine receives the responses in
// submission order and one reader polls the snapshot. traced turns
// spans on. It returns once every submission has its response.
func (r *serveRig) phase(rec *record, d time.Duration, seed int64, traced bool) *servePhase {
	ph := &servePhase{}
	ph.ack.v = make([]float64, 0, int(1.1*serveRate*d.Seconds()))
	arrivals, err := gen.NewPoissonArrivals(serveRate, seed)
	if err != nil {
		rec.violate("arrivals: %v", err)
		return ph
	}
	origin := time.Now()
	ph.origin = origin
	ph.windows = make([]sample, int(d/time.Second)+1)
	var genLog, colLog, readLog *spanLog
	if traced {
		genLog, colLog, readLog = newSpanLog(origin), newSpanLog(origin), newSpanLog(origin)
		ph.logs = []*spanLog{genLog, colLog, readLog}
	}
	before := r.srv.Stats()

	// Sized for the longest backlog the collector may trail the
	// generator by: the whole server queue plus a batch in flight,
	// with room for a stall of a few milliseconds at serveRate.
	pipe := make(chan inflight, 1<<14)
	collected := make(chan struct{})
	var missing bool
	go func() {
		defer close(collected)
		missing = !r.collect(ph, pipe, d+time.Minute, colLog)
	}()
	var (
		stop   atomic.Bool
		reader sync.WaitGroup
	)
	reader.Add(1)
	go func() {
		defer reader.Done()
		r.read(ph, &stop, readLog)
	}()

	rng := rand.New(rand.NewSource(seed + 1))
	r.mu.Lock()
	planned := len(r.live)
	r.mu.Unlock()
	loop := &openLoop{clk: wallClock{}, start: origin, next: arrivals.Next}
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	tick := func() {
		// One deadline per generator wake-up: the server reads only the
		// deadline, and a context per request would cost a timer each.
		cancel()
		ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(serveDeadline))
		ph.depth.add(float64(r.srv.QueueDepth()))
	}
	issue := func(seq int, due time.Time) {
		req, kind := r.pick(rng, &planned)
		t0 := time.Now()
		ch := r.srv.SubmitAsync(ctx, req)
		genLog.record("serve.submit", int64(seq), "serve.request", t0, time.Now())
		pipe <- inflight{int64(seq), due, kind, ch}
	}
	n := loop.run(origin.Add(d), issue, tick)
	cancel()
	close(pipe)
	ph.wall = time.Since(origin)
	ph.submitted = int64(n)
	ph.lag = loop.lag
	// The reader keeps reading until the last response is in, so reads
	// run beside the whole write load.
	<-collected
	stop.Store(true)
	reader.Wait()
	if missing {
		rec.violate("a submission got no response within %v", d+time.Minute)
	}
	after := r.srv.Stats()
	ph.stats = serve.ServerStats{
		Shed: after.Shed - before.Shed, Expired: after.Expired - before.Expired,
		Retried: after.Retried - before.Retried, Batches: after.Batches - before.Batches,
		BatchedOps: after.BatchedOps - before.BatchedOps,
	}
	return ph
}

// pick draws the next write. Its kind and endpoints come from rng
// alone: a few reroutes, and adds or removes with add probability
// serveLive/(serveLive+planned), which holds the live set near
// serveLive (planned counts adds minus removes issued). Which live
// request a remove or reroute names depends on which adds were acked
// by then.
func (r *serveRig) pick(rng *rand.Rand, planned *int) (serve.Request, serve.OpKind) {
	u, v, k := rng.Float64(), rng.Float64(), rng.Int63()
	q := r.pool[rng.Intn(len(r.pool))]
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.live))
	switch {
	case n > 0 && u < serveReroute:
		return serve.RerouteRequest(r.live[k%n]), serve.OpReroute
	case n > 0 && v*float64(serveLive+*planned) >= serveLive:
		i := k % n
		id := r.live[i]
		r.live[i] = r.live[n-1]
		r.live = r.live[:n-1]
		*planned--
		return serve.RemoveRequest(id), serve.OpRemove
	}
	*planned++
	return serve.AddRequest(q.Src, q.Dst), serve.OpAdd
}

// collect receives every response in submission order and reports
// whether each arrived before hang passed. A response delivered while
// the collector waited on an earlier one is timed when the collector
// reaches it; responses of one batch complete together, so the skew is
// the collector's own pace.
func (r *serveRig) collect(ph *servePhase, pipe <-chan inflight, hang time.Duration, log *spanLog) bool {
	timeout := time.NewTimer(hang)
	defer timeout.Stop()
	ok := true
	for it := range pipe {
		if !ok {
			continue // drain, so the generator never blocks on a dead collector
		}
		var resp serve.Response
		select {
		case resp = <-it.resp:
		case <-timeout.C:
			ok = false
			continue
		}
		now := time.Now()
		log.record("serve.request", it.seq, "", it.due, now)
		var panicked serve.ErrPanic
		switch {
		case resp.Err == nil:
			ph.acked++
			ph.ack.addDur(now.Sub(it.due))
			if w := int(it.due.Sub(ph.origin) / time.Second); w < len(ph.windows) {
				ph.windows[w].addDur(now.Sub(it.due))
			}
			if it.kind == serve.OpAdd {
				id := resp.ID
				r.mu.Lock()
				r.live = append(r.live, id)
				r.mu.Unlock()
				r.last.Store(&id)
			}
		case errors.Is(resp.Err, wdm.ErrBudgetExceeded):
			ph.budget++
		case resp.Shed():
			ph.shed++
		case resp.Expired():
			ph.expired++
		case errors.As(resp.Err, &panicked):
			ph.panics++
		default:
			ph.others++
		}
	}
	return ok
}

// read polls the lock-free query plane the way /v1/stats does — Stats,
// Pi, ArcLoadsInto, and a Path lookup of the newest request — and
// samples λ/π each round, in bursts of readerBurst. A traced reader
// times every readerSpanEvery-th round.
func (r *serveRig) read(ph *servePhase, stop *atomic.Bool, log *spanLog) {
	var (
		loads  []int
		rounds int64
		lpSum  float64
		lpN    int64
		sink   int
		st     wdm.EngineStats
		pi     int
		p      *dipath.Path
		burst  = time.Now()
	)
	for !stop.Load() {
		id := *r.last.Load()
		if log == nil || rounds%readerSpanEvery != 0 {
			st = r.eng.Stats()
			pi = r.eng.Pi()
			loads = r.eng.ArcLoadsInto(loads)
			p, _ = r.eng.Path(id) // the request may be gone: a miss is a read too
		} else {
			t0 := time.Now()
			st = r.eng.Stats()
			t1 := time.Now()
			pi = r.eng.Pi()
			t2 := time.Now()
			loads = r.eng.ArcLoadsInto(loads)
			t3 := time.Now()
			p, _ = r.eng.Path(id)
			t4 := time.Now()
			log.record("snapshot.stats", rounds, "", t0, t1)
			log.record("snapshot.pi", rounds, "", t1, t2)
			log.record("snapshot.arcloads", rounds, "", t2, t3)
			log.record("snapshot.path", rounds, "", t3, t4)
		}
		sink += st.Components + len(loads)
		if p != nil {
			sink += p.NumArcs()
		}
		if lam, err := r.eng.NumLambda(); err == nil && pi > 0 {
			lpSum += float64(lam) / float64(pi)
			lpN++
		}
		rounds++
		if rounds%16 == 0 && time.Since(burst) >= readerBurst {
			time.Sleep(readerPause)
			burst = time.Now()
		}
	}
	ph.reads = 4 * rounds
	if lpN > 0 {
		ph.lambdaPi = lpSum / float64(lpN)
	}
	_ = sink
}

func runServe(cfg runConfig) (*record, error) {
	rec := newRecord()
	rig, setup, err := setupMedian(
		func() (*serveRig, error) { return buildServe(cfg.seed) },
		func(r *serveRig) { _ = r.shutdown() })
	if err != nil {
		return nil, err
	}
	rec.set("setup_s", setup)

	untraced, traced := cfg.phases()
	mark := markRuntime()
	ph := rig.phase(rec, untraced, cfg.seed+10, false)
	var tph *servePhase
	if cfg.traced && len(rec.Violations) == 0 {
		rec.layerRuntime(mark, ph.submitted)
		tph = rig.phase(rec, traced, cfg.seed+20, true)
	}
	if err := rig.shutdown(); err != nil {
		rec.violate("Shutdown: %v", err)
	}
	st := rig.srv.Stats()
	if st.Submitted != st.Acked+st.Failed+st.Shed+st.Expired {
		rec.violate("server ledger: submitted %d ≠ acked %d + failed %d + shed %d + expired %d",
			st.Submitted, st.Acked, st.Failed, st.Shed, st.Expired)
	}
	if err := rig.eng.Verify(); err != nil {
		rec.violate("Verify after Shutdown: %v", err)
	}

	rec.Attempted, rec.Failed = ph.submitted, ph.errors()
	errRatio := ratio(ph.errors(), ph.submitted)
	rec.set("ack_p50_us", ph.ack.q(0.5)/1e3)
	rec.set("ack_p99_us", ph.ack.q(serveTail)/1e3)
	rec.set("op_p50_us", ph.ack.q(0.5)/1e3)
	rec.set("op_tail_us", windowedTail(ph.windows, windowTail)/1e3)
	rec.set("ops_per_s", float64(ph.acked)/ph.wall.Seconds())
	rec.set("error_ratio", errRatio)
	rec.set("ok_ratio", 1-errRatio)
	rec.set("reads_per_s", float64(ph.reads)/ph.wall.Seconds())
	rec.set("lambda_over_pi", ph.lambdaPi)
	rec.note("ack", &ph.ack)
	if tph != nil {
		layersServe(rec, ph, tph)
		log := newSpanLog(time.Now())
		log.merge(tph.logs...)
		if err := log.write(cfg.traceDir, "serve-poisson", cfg.seed); err != nil {
			return nil, err
		}
	}
	rec.set("heap_mib", heapMiB())
	runtime.KeepAlive(rig)
	return rec, nil
}

// layersServe files the per-layer metrics of the traced phase t; u is
// the untraced phase, for the tracing overhead.
func layersServe(rec *record, u, t *servePhase) {
	gen, col, rd := t.logs[0], t.logs[1], t.logs[2]
	rec.layer("serve.submit_ns_p50", gen.dur("serve.submit").q(0.5))
	rec.layer("serve.ops_per_batch", ratio(t.stats.BatchedOps, t.stats.Batches))
	rec.layer("serve.batches_per_s", float64(t.stats.Batches)/t.wall.Seconds())
	rec.layer("serve.queue_depth_p99", t.depth.q(0.99))
	rec.layer("serve.shed", float64(t.stats.Shed))
	rec.layer("serve.expired", float64(t.stats.Expired))
	rec.layer("serve.retried", float64(t.stats.Retried))
	for _, k := range []string{"stats", "pi", "arcloads", "path"} {
		rec.layer("snapshot."+k+"_ns_p50", rd.dur("snapshot."+k).q(0.5))
		rec.layer("snapshot."+k+"_ns_p99", rd.dur("snapshot."+k).q(0.99))
	}
	rec.layer("bench.gen_lag_p99_us", t.lag.q(0.99)/1e3)
	// Open loop: the offered rate is fixed, so tracing shows as latency.
	rec.layer("bench.trace_overhead_pct", overheadPct(u.ack.q(0.5), col.dur("serve.request").q(0.5)))
}
