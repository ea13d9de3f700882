package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// testNetwork builds a small multi-component network with its all-pairs
// request pool.
func testNetwork(t testing.TB, comps int, seed int64) (*wdm.Network, []route.Request) {
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
	net := &wdm.Network{Topology: g}
	pool := route.NewRouter(g).AllToAll()
	if len(pool) == 0 {
		t.Fatal("empty request pool")
	}
	return net, pool
}

func testServer(t testing.TB, comps int, seed int64, engOpts []wdm.ShardedOption, srvOpts ...Option) (*Server, []route.Request) {
	t.Helper()
	net, pool := testNetwork(t, comps, seed)
	eng, err := net.NewShardedEngine(engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, srvOpts...)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, pool
}

// checkBalance asserts the definitive-response ledger: every submission
// accounted for in exactly one outcome bucket.
func checkBalance(t *testing.T, st ServerStats) {
	t.Helper()
	if st.Submitted != st.Acked+st.Failed+st.Shed+st.Expired {
		t.Fatalf("outcome ledger unbalanced: submitted %d != acked %d + failed %d + shed %d + expired %d",
			st.Submitted, st.Acked, st.Failed, st.Shed, st.Expired)
	}
}

func TestServeAckRoundTrip(t *testing.T) {
	srv, pool := testServer(t, 3, 41, nil)
	ctx := context.Background()

	var ids []wdm.ShardedID
	for i := 0; i < 10; i++ {
		resp := srv.Submit(ctx, AddRequest(pool[i%len(pool)].Src, pool[i%len(pool)].Dst))
		if resp.Err != nil {
			t.Fatalf("add %d: %v", i, resp.Err)
		}
		ids = append(ids, resp.ID)
	}
	if got := srv.Engine().Len(); got != 10 {
		t.Fatalf("engine live = %d, want 10", got)
	}
	if resp := srv.Submit(ctx, RerouteRequest(ids[0])); resp.Err != nil {
		t.Fatalf("reroute: %v", resp.Err)
	}
	for _, id := range ids[:5] {
		if resp := srv.Submit(ctx, RemoveRequest(id)); resp.Err != nil {
			t.Fatalf("remove %v: %v", id, resp.Err)
		}
	}
	if got := srv.Engine().Len(); got != 5 {
		t.Fatalf("engine live = %d, want 5", got)
	}
	if err := srv.Engine().Verify(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Acked != 16 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 16 acks", st)
	}
	checkBalance(t, st)
}

// gateNextApply parks the dispatcher inside its next engine
// application until release is called; parked closes once it is there.
// Requests submitted meanwhile queue behind the gate and form the next
// batch together (up to WithMaxBatch), so co-batching follows from the
// order of events rather than from timing. Later applications run hook
// (nil for none). Install the gate while the dispatcher is idle.
func gateNextApply(srv *Server, hook func([]wdm.BatchOp)) (parked <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	gated := false
	srv.testApplyHook = func(ops []wdm.BatchOp) {
		if !gated {
			gated = true
			close(in)
			<-out
			return
		}
		if hook != nil {
			hook(ops)
		}
	}
	return in, func() { close(out) }
}

// TestServeCoalesces checks that requests queued while the dispatcher
// is busy share one engine batch: 64 submissions made while it is
// parked inside an application must all land in the next one.
func TestServeCoalesces(t *testing.T) {
	srv, pool := testServer(t, 3, 43, nil, WithMaxBatch(256))
	ctx := context.Background()
	parked, release := gateNextApply(srv, nil)

	const n = 64
	futures := make([]<-chan Response, n+1)
	futures[0] = srv.SubmitAsync(ctx, AddRequest(pool[0].Src, pool[0].Dst))
	<-parked
	for i := 1; i <= n; i++ {
		futures[i] = srv.SubmitAsync(ctx, AddRequest(pool[i%len(pool)].Src, pool[i%len(pool)].Dst))
	}
	release()
	for i, f := range futures {
		if resp := <-f; resp.Err != nil {
			t.Fatalf("add %d: %v", i, resp.Err)
		}
	}
	st := srv.Stats()
	if st.BatchedOps != n+1 || st.Batches != 2 {
		t.Fatalf("%d ops in %d batches, want %d in 2 (the gated one, then all queued behind it)",
			st.BatchedOps, st.Batches, n+1)
	}
}

// TestServeIdleRequestDoesNotWait: a lone request on an idle server
// applies at once; no timer holds it back waiting for company, however
// long the deprecated latency cap says.
func TestServeIdleRequestDoesNotWait(t *testing.T) {
	srv, pool := testServer(t, 1, 101, nil, WithLatencyCap(time.Hour))
	select {
	case resp := <-srv.SubmitAsync(context.Background(), AddRequest(pool[0].Src, pool[0].Dst)):
		if resp.Err != nil {
			t.Fatalf("add: %v", resp.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone submission not acked within 5s: the dispatcher waited for company")
	}
}

func TestServeDeadlineExpiredBeforeEngineWork(t *testing.T) {
	srv, pool := testServer(t, 2, 47, nil)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	resp := srv.Submit(ctx, AddRequest(pool[0].Src, pool[0].Dst))
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", resp.Err)
	}
	if !resp.Expired() {
		t.Fatal("Expired() = false on a deadline response")
	}
	if resp.Attempts != 0 {
		t.Fatalf("expired request consumed %d engine attempts", resp.Attempts)
	}
	st := srv.Stats()
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if srv.Engine().Len() != 0 {
		t.Fatal("expired request reached the engine")
	}
	checkBalance(t, st)
}

// stalledServer builds a Server whose dispatcher is NOT running, so
// queue occupancy is fully test-controlled. Only the submission-side
// paths (shed verdicts, blocking backpressure) may be exercised.
func stalledServer(t *testing.T, queueCap, shedDepth int, blocking bool) *Server {
	t.Helper()
	cfg := config{
		maxBatch:  256,
		queueCap:  queueCap,
		shedDepth: shedDepth,
		blocking:  blocking,
		retryMax:  1,
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *pending, queueCap),
		rng:      rand.New(rand.NewSource(1)),
		drainReq: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.perOpNanos.Store(1000)
	return s
}

func TestServeShedsAtDepth(t *testing.T) {
	srv := stalledServer(t, 4, 2, false)
	ctx := context.Background()
	req := AddRequest(0, 1)

	for i := 0; i < 2; i++ {
		select {
		case resp := <-srv.SubmitAsync(ctx, req):
			t.Fatalf("submission %d completed while dispatcher stalled: %+v", i, resp)
		default: // queued, as expected
		}
	}
	resp := <-srv.SubmitAsync(ctx, req)
	if !resp.Shed() {
		t.Fatalf("err = %v, want ErrShed", resp.Err)
	}
	if resp.RetryAfter <= 0 {
		t.Fatal("shed verdict without a RetryAfter hint")
	}
	if !IsTransient(resp.Err) {
		t.Fatal("shed verdict classified permanent")
	}
	st := srv.Stats()
	if st.Shed != 1 || st.Submitted != 3 {
		t.Fatalf("stats = %+v, want 1 shed of 3", st)
	}
}

// TestServeShedHintTracksDepth pins the shed hint to the queued ops
// ahead of the caller times the calibrated per-op time (1µs in
// stalledServer), with no floor beyond one op.
func TestServeShedHintTracksDepth(t *testing.T) {
	srv := stalledServer(t, 8, 3, false)
	if got := srv.retryAfterHint(); got != time.Microsecond {
		t.Fatalf("empty-queue hint = %v, want one op (1µs)", got)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		srv.SubmitAsync(ctx, AddRequest(0, 1))
	}
	resp := <-srv.SubmitAsync(ctx, AddRequest(0, 1))
	if !resp.Shed() {
		t.Fatalf("err = %v, want ErrShed at depth 3", resp.Err)
	}
	if resp.RetryAfter != 3*time.Microsecond {
		t.Fatalf("hint = %v, want 3 queued ops x 1µs", resp.RetryAfter)
	}
}

func TestServeBlockingBackpressure(t *testing.T) {
	srv := stalledServer(t, 1, 1, true)
	req := AddRequest(0, 1)

	select {
	case resp := <-srv.SubmitAsync(context.Background(), req):
		t.Fatalf("first submission completed while dispatcher stalled: %+v", resp)
	default:
	}
	// Queue full, dispatcher stalled: a blocking submission must wait,
	// then abandon with the context's error — never a silent drop.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp := <-srv.SubmitAsync(ctx, req)
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", resp.Err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("blocking submission returned before its context expired")
	}
	if st := srv.Stats(); st.Shed != 0 {
		t.Fatalf("blocking mode shed %d requests", st.Shed)
	}
}

// TestServeServerRetry exercises the server-side backoff path: an add
// rejected by the wavelength budget retries after the blocking session
// is removed, acking without the client ever seeing the transient error.
func TestServeServerRetry(t *testing.T) {
	srv, pool := testServer(t, 1, 53,
		[]wdm.ShardedOption{wdm.WithEngineWavelengthBudget(1)},
		WithServerRetry(8, 200*time.Microsecond, 5*time.Millisecond),
		WithSeed(7),
	)
	ctx := context.Background()

	first := srv.Submit(ctx, AddRequest(pool[0].Src, pool[0].Dst))
	if first.Err != nil {
		t.Fatalf("first add: %v", first.Err)
	}
	// Occupies the whole budget: the same demand again must bounce off
	// ErrBudgetExceeded until the remove lands, then retry through.
	blocked := srv.SubmitAsync(ctx, AddRequest(pool[0].Src, pool[0].Dst))
	if resp := srv.Submit(ctx, RemoveRequest(first.ID)); resp.Err != nil {
		t.Fatalf("remove: %v", resp.Err)
	}
	resp := <-blocked
	if resp.Err != nil {
		t.Fatalf("retried add failed: %v", resp.Err)
	}
	if resp.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (must have retried)", resp.Attempts)
	}
	st := srv.Stats()
	if st.Retried == 0 {
		t.Fatal("no server-side retries recorded")
	}
	checkBalance(t, st)
}

// TestServeRetryExhaustion: when the transient condition never clears,
// the bounded attempt budget must surface the underlying error — not
// retry forever, and never mask it as success.
func TestServeRetryExhaustion(t *testing.T) {
	srv, pool := testServer(t, 1, 59,
		[]wdm.ShardedOption{wdm.WithEngineWavelengthBudget(1)},
		WithServerRetry(3, 100*time.Microsecond, time.Millisecond),
		WithSeed(7),
	)
	ctx := context.Background()
	if resp := srv.Submit(ctx, AddRequest(pool[0].Src, pool[0].Dst)); resp.Err != nil {
		t.Fatalf("first add: %v", resp.Err)
	}
	resp := srv.Submit(ctx, AddRequest(pool[0].Src, pool[0].Dst))
	if !errors.Is(resp.Err, wdm.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded after exhaustion", resp.Err)
	}
	if resp.Attempts != 3 {
		t.Fatalf("attempts = %d, want exactly the budget of 3", resp.Attempts)
	}
}

func TestServePermanentErrorsNotRetried(t *testing.T) {
	srv, _ := testServer(t, 1, 61, nil,
		WithServerRetry(5, 100*time.Microsecond, time.Millisecond))
	resp := srv.Submit(context.Background(), RemoveRequest(wdm.ShardedID{Shard: 0, ID: 1 << 40}))
	if resp.Err == nil {
		t.Fatal("remove of a never-issued id acked")
	}
	if IsTransient(resp.Err) {
		t.Fatalf("unknown-session error classified transient: %v", resp.Err)
	}
	if resp.Attempts != 1 {
		t.Fatalf("permanent error consumed %d attempts, want 1", resp.Attempts)
	}
	if st := srv.Stats(); st.Retried != 0 {
		t.Fatalf("permanent error retried %d times", st.Retried)
	}
}

// TestServePanicIsolation: a panic while applying a batch must fail
// exactly the offending request; its batch-mates get real results and
// the server keeps serving.
func TestServePanicIsolation(t *testing.T) {
	net, pool := testNetwork(t, 2, 67)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	marker := pool[0]
	parked, release := gateNextApply(srv, func(ops []wdm.BatchOp) {
		for _, op := range ops {
			if op.Kind == wdm.BatchAdd && op.Req == marker {
				panic("injected fault")
			}
		}
	})

	ctx := context.Background()
	gate := srv.SubmitAsync(ctx, AddRequest(pool[5].Src, pool[5].Dst))
	<-parked
	// The marker and its batch-mates queue behind the gate: one batch.
	mf := srv.SubmitAsync(ctx, AddRequest(marker.Src, marker.Dst))
	var others []<-chan Response
	for i := 1; i <= 4; i++ {
		others = append(others, srv.SubmitAsync(ctx, AddRequest(pool[i%len(pool)].Src, pool[i%len(pool)].Dst)))
	}
	release()
	if r := <-gate; r.Err != nil {
		t.Fatalf("gate add: %v", r.Err)
	}
	resp := <-mf
	var pe ErrPanic
	if !errors.As(resp.Err, &pe) {
		t.Fatalf("marker err = %v, want ErrPanic", resp.Err)
	}
	for i, f := range others {
		if r := <-f; r.Err != nil {
			t.Fatalf("batch-mate %d failed: %v", i, r.Err)
		}
	}
	if st := srv.Stats(); st.Batches != 2 || st.BatchedOps != 6 {
		t.Fatalf("%d ops in %d batches, want 6 in 2: marker not co-batched", st.BatchedOps, st.Batches)
	}
	// The server must still be fully alive.
	srv.testApplyHook = nil
	if r := srv.Submit(ctx, AddRequest(pool[1].Src, pool[1].Dst)); r.Err != nil {
		t.Fatalf("post-panic submit: %v", r.Err)
	}
	st := srv.Stats()
	if st.Panics == 0 {
		t.Fatal("panic not recorded")
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	checkBalance(t, st)
}

// TestServeBarrierOps routes fiber cuts and repairs through the
// coalescer: they must apply as barriers between batches and report
// their storm/revival results through the future.
func TestServeBarrierOps(t *testing.T) {
	srv, pool := testServer(t, 1, 71, nil)
	ctx := context.Background()

	ids := make(map[wdm.ShardedID]bool)
	for i := 0; i < 12; i++ {
		resp := srv.Submit(ctx, AddRequest(pool[i%len(pool)].Src, pool[i%len(pool)].Dst))
		if resp.Err != nil {
			t.Fatalf("add: %v", resp.Err)
		}
		ids[resp.ID] = true
	}
	// Cut the arc carrying the most traffic, interleaved with more
	// writes queued behind a gate so the barrier actually splits a batch.
	loads := srv.Engine().ArcLoads()
	arc, best := 0, -1
	for a, l := range loads {
		if l > best {
			arc, best = a, l
		}
	}
	parked, release := gateNextApply(srv, nil)
	gate := srv.SubmitAsync(ctx, AddRequest(pool[1].Src, pool[1].Dst))
	<-parked
	before := srv.Stats().Batches
	pre := srv.SubmitAsync(ctx, AddRequest(pool[3].Src, pool[3].Dst))
	cut := srv.SubmitAsync(ctx, FailArcRequest(digraph.ArcID(arc)))
	post := srv.SubmitAsync(ctx, AddRequest(pool[5].Src, pool[5].Dst))
	release()
	if r := <-gate; r.Err != nil {
		t.Fatalf("gate add: %v", r.Err)
	}
	if r := <-pre; r.Err != nil {
		t.Fatalf("pre-cut add: %v", r.Err)
	}
	cutResp := <-cut
	if cutResp.Err != nil {
		t.Fatalf("fail-arc: %v", cutResp.Err)
	}
	if cutResp.Storm.Affected < best {
		t.Fatalf("storm affected %d, want >= %d (paths on the cut arc)", cutResp.Storm.Affected, best)
	}
	if cutResp.Storm.Affected != cutResp.Storm.Restored+cutResp.Storm.Parked {
		t.Fatalf("storm report unbalanced: %+v", cutResp.Storm)
	}
	if r := <-post; r.Err != nil {
		t.Fatalf("post-cut add: %v", r.Err)
	}
	// The gated batch, then pre and post on either side of the barrier.
	if got := srv.Stats().Batches - before; got != 3 {
		t.Fatalf("%d engine batches after the gate, want 3 (barrier split)", got)
	}
	if got := srv.Engine().NumFailedArcs(); got != 1 {
		t.Fatalf("failed arcs = %d, want 1", got)
	}
	rest := srv.Submit(ctx, RestoreArcRequest(digraph.ArcID(arc)))
	if rest.Err != nil {
		t.Fatalf("restore-arc: %v", rest.Err)
	}
	if got := srv.Engine().NumFailedArcs(); got != 0 {
		t.Fatalf("failed arcs = %d after restore, want 0", got)
	}
	if rest.Revived != cutResp.Storm.Parked {
		t.Fatalf("revived %d, want the %d parked by the cut", rest.Revived, cutResp.Storm.Parked)
	}
	if err := srv.Engine().Verify(); err != nil {
		t.Fatal(err)
	}
	checkBalance(t, srv.Stats())
}

// TestServeGracefulDrain: Shutdown must flush every queued request to a
// definitive response before closing the engine, reads must keep
// answering from the final snapshot, and later submissions must get
// ErrServerClosed. Shutdown is idempotent.
func TestServeGracefulDrain(t *testing.T) {
	net, pool := testNetwork(t, 3, 73)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, WithQueueCapacity(1024))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const n = 200
	futures := make([]<-chan Response, n)
	for i := 0; i < n; i++ {
		futures[i] = srv.SubmitAsync(ctx, AddRequest(pool[i%len(pool)].Src, pool[i%len(pool)].Dst))
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	acked := 0
	for i, f := range futures {
		select {
		case resp := <-f:
			if resp.Err == nil {
				acked++
			} else if !errors.Is(resp.Err, ErrServerClosed) {
				t.Fatalf("request %d: unexpected drain outcome %v", i, resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never got a definitive response", i)
		}
	}
	if acked != int(srv.Stats().Acked) {
		t.Fatalf("acks seen %d, stats say %d", acked, srv.Stats().Acked)
	}
	// Every ack made it into the engine before Close froze it.
	if got := eng.Len(); got != acked {
		t.Fatalf("engine live = %d, want %d (all drain acks applied)", got, acked)
	}
	// Reads answer post-Close from the final snapshot.
	if st := eng.Stats(); st.Accepted() != acked {
		t.Fatalf("post-close stats accepted = %d, want %d", st.Accepted(), acked)
	}
	// Post-drain submissions are definitively rejected.
	if resp := srv.Submit(ctx, AddRequest(pool[0].Src, pool[0].Dst)); !errors.Is(resp.Err, ErrServerClosed) {
		t.Fatalf("post-drain submit err = %v, want ErrServerClosed", resp.Err)
	}
	// Idempotent, including concurrently.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("repeat shutdown: %v", err)
			}
		}()
	}
	wg.Wait()
	st := srv.Stats()
	if !st.Drained {
		t.Fatal("Drained flag unset after shutdown")
	}
	checkBalance(t, st)
}

// TestServeDrainRacesSubmitters: submissions racing Shutdown from many
// goroutines must each still get exactly one definitive response.
func TestServeDrainRacesSubmitters(t *testing.T) {
	net, pool := testNetwork(t, 2, 79)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	responses := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp := srv.Submit(ctx, AddRequest(pool[(w*perWriter+i)%len(pool)].Src, pool[(w*perWriter+i)%len(pool)].Dst))
				if resp.Err == nil || errors.Is(resp.Err, ErrServerClosed) || resp.Shed() {
					responses[w]++
				} else {
					t.Errorf("writer %d: unexpected outcome %v", w, resp.Err)
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	total := 0
	for _, n := range responses {
		total += n
	}
	if total != writers*perWriter {
		t.Fatalf("definitive responses = %d, want %d", total, writers*perWriter)
	}
	checkBalance(t, srv.Stats())
}

func TestServeClientRetriesShed(t *testing.T) {
	srv := stalledServer(t, 1, 1, false)
	// One queued request saturates the stalled server (shed depth 1);
	// every later submission sheds, so Do must spend its full attempt
	// budget and surface the shed verdict.
	srv.queue <- &pending{req: AddRequest(0, 1), done: make(chan Response, 1)}

	client := NewClient(srv, RetryPolicy{MaxAttempts: 3, Base: 100 * time.Microsecond, Max: time.Millisecond}, 5)
	resp := client.Do(context.Background(), AddRequest(0, 1))
	if !resp.Shed() {
		t.Fatalf("err = %v, want ErrShed after exhausting retries", resp.Err)
	}
	if resp.Attempts != 3 {
		t.Fatalf("client attempts = %d, want 3", resp.Attempts)
	}
}

func TestServeClientAcksFirstTry(t *testing.T) {
	srv, pool := testServer(t, 1, 83, nil)
	client := NewClient(srv, RetryPolicy{}, 9)
	resp := client.Do(context.Background(), AddRequest(pool[0].Src, pool[0].Dst))
	if resp.Err != nil {
		t.Fatalf("Do: %v", resp.Err)
	}
	if resp.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", resp.Attempts)
	}
}

// TestServeCloseRacesDrain: an external engine Close racing the
// server's in-flight drain must stay safe — double-Close returns
// cleanly, every queued request still gets a definitive response
// (acked before the Close won, or ErrEngineClosed after), and the
// query plane keeps answering from the final snapshot.
func TestServeCloseRacesDrain(t *testing.T) {
	for round := 0; round < 5; round++ {
		net, pool := testNetwork(t, 2, 90+int64(round))
		eng, err := net.NewShardedEngine()
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(eng)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		const n = 120
		futures := make([]<-chan Response, n)
		for i := 0; i < n; i++ {
			futures[i] = srv.SubmitAsync(ctx, AddRequest(pool[i%len(pool)].Src, pool[i%len(pool)].Dst))
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); eng.Close() }()
		go func() {
			defer wg.Done()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		acked := 0
		for i, f := range futures {
			select {
			case resp := <-f:
				switch {
				case resp.Err == nil:
					acked++
				case errors.Is(resp.Err, wdm.ErrEngineClosed):
				default:
					t.Fatalf("round %d request %d: %v", round, i, resp.Err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d request %d never resolved", round, i)
			}
		}
		wg.Wait()
		if got := eng.Len(); got != acked {
			t.Fatalf("round %d: final live %d, want %d acks", round, got, acked)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("round %d: close after drain race: %v", round, err)
		}
		checkBalance(t, srv.Stats())
	}
}

func TestServeOptionValidation(t *testing.T) {
	net, _ := testNetwork(t, 1, 89)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for name, opt := range map[string]Option{
		"batch0":      WithMaxBatch(0),
		"cap0":        WithLatencyCap(0),
		"queue0":      WithQueueCapacity(0),
		"shed0":       WithShedDepth(0),
		"retry0":      WithServerRetry(0, time.Millisecond, time.Second),
		"retry-base0": WithServerRetry(3, 0, time.Second),
		"retry-inv":   WithServerRetry(3, time.Second, time.Millisecond),
	} {
		if _, err := New(eng, opt); err == nil {
			t.Errorf("%s: invalid option accepted", name)
		}
	}
}
