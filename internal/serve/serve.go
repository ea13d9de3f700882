// Package serve is the robust write-path front-end for a long-running
// provisioning service: a Server wraps a wdm.ShardedEngine and turns
// concurrent, individually-submitted mutation requests into the batched
// ApplyBatchInto calls the engine's fan-out is built for, while keeping
// every caller's experience definitive under overload.
//
// The core is a write coalescer: a bounded MPSC submission queue feeds
// a single dispatcher goroutine that batches by the group-commit policy.
// Whenever the dispatcher is free it takes every due retry and every
// queued request, up to the maximum batch size, and applies them at
// once; requests that arrive while a batch applies form the next one.
// No request waits for company: an idle server applies a lone request
// immediately, and a busy one fills its batches because the queue
// never runs dry.
// Each submission carries a completion future, so every caller gets
// exactly one definitive response: an ack (with the engine result), a
// terminal error, a deadline expiry, or a shed verdict.
//
// Around the coalescer sits the robustness layer:
//
//   - Deadlines: a request's context deadline travels with it; requests
//     that expire while queued are answered with ErrDeadlineExceeded
//     before any engine work is spent on them, and requests whose
//     estimated queue wait already overruns the deadline are shed at
//     submission.
//   - Load shedding: once the queue depth crosses the shed threshold
//     (or the queue is full), Submit answers immediately with ErrShed
//     and a retry-after hint derived from the coalescer's measured
//     per-op service time — the caller learns when capacity is likely,
//     instead of piling onto a saturated queue. WithBlockingBackpressure
//     disables shedding (submitters block on the full queue instead),
//     which is the collapse-comparison axis of the -serve benchmarks.
//   - Retry: transient failures (wdm.ErrBudgetExceeded) can be retried
//     server-side with jittered exponential backoff under a bounded
//     attempt budget (WithServerRetry); permanent errors (no route,
//     unknown session) are never retried. The Client type provides the
//     matching client-side loop for shed verdicts.
//   - Panic isolation: a panic while applying a batch fails only the
//     requests of that batch — the dispatcher recovers, re-applies the
//     batch one op at a time (each op under its own recover, so exactly
//     the panicking op fails with ErrPanic), and keeps serving.
//   - Graceful drain: Shutdown stops intake (later Submits answer
//     ErrServerClosed), flushes the queue and the retry backlog so
//     every in-flight request gets its definitive response, then
//     closes the engine. Reads keep answering from the engine's final
//     published snapshot.
//
// Reads never enter the queue: the engine's lock-free query plane
// (Stats, Pi, Len, Path, ...) already serves them from any goroutine
// with zero coordination, so the Server only fronts the write path.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wavedag/internal/digraph"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// Sentinel errors of the serving contract.
var (
	// ErrShed is the verdict for a request dropped by load shedding:
	// the coalescer is saturated and queueing the request would only
	// grow the backlog. Shed responses carry a RetryAfter hint; shed
	// errors are transient — Client retries them with backoff.
	ErrShed = errors.New("serve: overloaded, request shed")

	// ErrServerClosed answers submissions after Shutdown began. It is
	// permanent: the serving process is going away.
	ErrServerClosed = errors.New("serve: server closed")

	// ErrDeadlineExceeded answers requests whose deadline expired while
	// they waited in the queue — no engine work was spent on them. It
	// wraps context.DeadlineExceeded, so errors.Is against either works.
	ErrDeadlineExceeded = fmt.Errorf("serve: deadline expired before engine work: %w", context.DeadlineExceeded)
)

// ErrPanic is the definitive response of a request whose engine
// application panicked. The panic is confined to that one request: the
// dispatcher recovers, fails the request with this error and keeps
// serving everything else.
type ErrPanic struct{ Value any }

func (e ErrPanic) Error() string { return fmt.Sprintf("serve: handler panicked: %v", e.Value) }

// IsTransient reports whether err is worth retrying after backoff:
// shed verdicts and budget rejections clear when load or occupancy
// drops; everything else (no route, unknown session, expired deadline,
// closed server, panics) is permanent for the request that saw it.
func IsTransient(err error) bool {
	return errors.Is(err, ErrShed) || errors.Is(err, wdm.ErrBudgetExceeded)
}

// OpKind selects a Request's operation.
type OpKind uint8

// Request operations. Add/Remove/Reroute coalesce into engine batches;
// FailArc/RestoreArc are barrier ops — the dispatcher flushes the
// batch under construction, applies them individually (they reconcile
// across every lane of the owning component), and resumes coalescing.
const (
	OpAdd OpKind = iota
	OpRemove
	OpReroute
	OpFailArc
	OpRestoreArc
)

func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpReroute:
		return "reroute"
	case OpFailArc:
		return "fail-arc"
	case OpRestoreArc:
		return "restore-arc"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Request is one write submitted to the Server.
type Request struct {
	Kind  OpKind
	Route route.Request // OpAdd
	ID    wdm.ShardedID // OpRemove, OpReroute
	Arc   digraph.ArcID // OpFailArc, OpRestoreArc
}

// AddRequest submits a provisioning demand from src to dst.
func AddRequest(src, dst digraph.Vertex) Request {
	return Request{Kind: OpAdd, Route: route.Request{Src: src, Dst: dst}}
}

// RemoveRequest tears down the request with the given id.
func RemoveRequest(id wdm.ShardedID) Request { return Request{Kind: OpRemove, ID: id} }

// RerouteRequest re-routes the request with the given id.
func RerouteRequest(id wdm.ShardedID) Request { return Request{Kind: OpReroute, ID: id} }

// FailArcRequest injects a fiber cut on arc a.
func FailArcRequest(a digraph.ArcID) Request { return Request{Kind: OpFailArc, Arc: a} }

// RestoreArcRequest repairs the cut on arc a.
func RestoreArcRequest(a digraph.ArcID) Request { return Request{Kind: OpRestoreArc, Arc: a} }

// Response is the definitive outcome of one submitted request. Exactly
// one Response is delivered per submission — acked, failed, shed or
// expired, the caller always learns which.
type Response struct {
	// ID is the assigned id on an acked OpAdd (echoed back for
	// OpRemove/OpReroute).
	ID wdm.ShardedID
	// Changed reports whether an acked OpReroute moved the path.
	Changed bool
	// Storm is the restoration-storm report of an acked OpFailArc.
	Storm wdm.StormReport
	// Revived is the revival count of an acked OpRestoreArc.
	Revived int
	// Err is nil on an ack; otherwise the definitive failure — a
	// terminal engine error, ErrShed, ErrDeadlineExceeded,
	// ErrServerClosed or an ErrPanic.
	Err error
	// RetryAfter is the backoff hint accompanying ErrShed: the
	// estimated time for the backlog to drain below the shed threshold.
	RetryAfter time.Duration
	// Attempts counts the engine applications this request consumed,
	// including server-side retries (0 when the request never reached
	// the engine — shed, expired or closed at submission).
	Attempts int
}

// Shed reports whether the response is a shed verdict.
func (r Response) Shed() bool { return errors.Is(r.Err, ErrShed) }

// Expired reports whether the response is a deadline expiry.
func (r Response) Expired() bool { return errors.Is(r.Err, context.DeadlineExceeded) }

// ServerStats counts the server's cumulative outcomes. Every submission
// lands in exactly one of Acked, Failed, Shed or Expired, so
// Submitted == Acked + Failed + Shed + Expired whenever the server is
// idle or drained.
type ServerStats struct {
	Submitted  int64 // requests entering Submit
	Acked      int64 // definitive success responses
	Failed     int64 // definitive error responses (terminal engine errors, panics, closed)
	Shed       int64 // load-shed verdicts
	Expired    int64 // deadline expiries before engine work
	Retried    int64 // server-side retry attempts consumed
	Panics     int64 // batch applications that panicked (isolated)
	Batches    int64 // engine batches applied
	BatchedOps int64 // ops applied through batches (BatchedOps/Batches = mean coalesce size)
	Drained    bool  // Shutdown completed: queue flushed, engine closed
}

// config collects the Server options.
type config struct {
	maxBatch    int
	queueCap    int
	shedDepth   int
	blocking    bool
	retryMax    int           // server-side attempts per request (1 = no retry)
	retryBase   time.Duration // first backoff step
	retryCapped time.Duration // backoff ceiling
	seed        int64
}

// Option configures New.
type Option func(*config) error

// WithMaxBatch caps how many coalesced ops one engine batch may carry
// (default 256).
func WithMaxBatch(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("serve: max batch must be >= 1, got %d", n)
		}
		c.maxBatch = n
		return nil
	}
}

// WithLatencyCap has no effect; it still rejects d <= 0. The
// dispatcher applies whatever is queued as soon as it is free, so no
// request waits for co-batched company and there is no wait to cap.
//
// Deprecated: batching no longer waits on a timer; drop the option.
func WithLatencyCap(d time.Duration) Option {
	return func(*config) error {
		if d <= 0 {
			return fmt.Errorf("serve: latency cap must be > 0, got %v", d)
		}
		return nil
	}
}

// WithQueueCapacity sets the submission queue bound (default 4096).
// A full queue sheds (or, under WithBlockingBackpressure, blocks).
func WithQueueCapacity(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("serve: queue capacity must be >= 1, got %d", n)
		}
		c.queueCap = n
		return nil
	}
}

// WithShedDepth sets the queue depth at which submissions start
// shedding (default: the queue capacity — shed only when full).
// Lower thresholds shed earlier and keep accepted-write latency flat
// deeper into overload.
func WithShedDepth(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("serve: shed depth must be >= 1, got %d", n)
		}
		c.shedDepth = n
		return nil
	}
}

// WithBlockingBackpressure disables load shedding: a submission to a
// full queue blocks until space frees (or its context cancels) instead
// of shedding. Queued requests still expire against their deadlines.
// This is the no-shedding axis of the overload benchmarks — expect tail
// latency to collapse past saturation.
func WithBlockingBackpressure() Option {
	return func(c *config) error {
		c.blocking = true
		return nil
	}
}

// WithServerRetry lets the dispatcher retry transient engine failures
// (wdm.ErrBudgetExceeded) server-side: up to attempts total engine
// applications per request, re-coalesced after a jittered exponential
// backoff starting at base (doubling per attempt, capped at max).
// Retries respect the request's deadline; permanent errors are never
// retried. attempts <= 1 disables server-side retry (the default).
func WithServerRetry(attempts int, base, max time.Duration) Option {
	return func(c *config) error {
		if attempts < 1 {
			return fmt.Errorf("serve: retry attempts must be >= 1, got %d", attempts)
		}
		if base <= 0 || max < base {
			return fmt.Errorf("serve: retry backoff needs 0 < base <= max, got %v and %v", base, max)
		}
		c.retryMax = attempts
		c.retryBase = base
		c.retryCapped = max
		return nil
	}
}

// WithSeed fixes the dispatcher's backoff-jitter seed, making retry
// schedules deterministic for tests and benchmarks.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// pending is one queued submission: the request, its completion future
// and the deadline/retry bookkeeping that travels with it.
type pending struct {
	req      Request
	done     chan Response
	deadline time.Time // zero = none
	attempts int       // engine applications consumed so far
	retryAt  time.Time // backlog ordering key while waiting out a backoff
	heapIdx  int
}

// Server is the robust write front-end over a ShardedEngine. All
// methods are safe for concurrent use. The Server owns the engine's
// write path: driving the engine's mutating API directly while a
// Server is attached forfeits the ordering the coalescer provides
// (reads are fine — they are lock-free).
type Server struct {
	eng *wdm.ShardedEngine
	cfg config

	queue chan *pending
	rng   *rand.Rand // dispatcher-only: backoff jitter

	// Intake gate: every enqueue happens under intakeMu.RLock with
	// draining re-checked inside, and Shutdown flips draining under the
	// write lock — so once Shutdown releases it, no submission can slip
	// into the queue behind the dispatcher's final flush. Without the
	// gate, a submitter could pass the draining check, lose the CPU,
	// and enqueue after the drain emptied the queue: a request that
	// never gets its response.
	intakeMu sync.RWMutex
	draining atomic.Bool
	drainReq chan struct{} // signals the dispatcher to drain
	done     chan struct{} // dispatcher exited: queue flushed, engine closed
	closeErr error         // engine Close result, readable after done

	// Calibration for shed hints: EWMA of the coalescer's per-op
	// service time in nanoseconds (atomic — Submit reads it lock-free).
	perOpNanos atomic.Int64

	submitted  atomic.Int64
	acked      atomic.Int64
	failed     atomic.Int64
	shed       atomic.Int64
	expired    atomic.Int64
	retried    atomic.Int64
	panics     atomic.Int64
	batches    atomic.Int64
	batchedOps atomic.Int64

	// Dispatcher-owned scratch.
	batch   []*pending
	ops     []wdm.BatchOp
	results []wdm.BatchResult
	backlog retryHeap

	// testApplyHook, when set (tests only, before the dispatcher
	// starts), runs inside the recover scope before every engine
	// application with the ops about to apply — a panicking hook
	// exercises the isolation path exactly like an engine panic.
	testApplyHook func(ops []wdm.BatchOp)
}

// New starts a Server over eng. The Server takes over eng's write
// path; call Shutdown to drain and close both.
func New(eng *wdm.ShardedEngine, opts ...Option) (*Server, error) {
	cfg := config{
		maxBatch:    256,
		queueCap:    4096,
		retryMax:    1,
		retryBase:   200 * time.Microsecond,
		retryCapped: 10 * time.Millisecond,
		seed:        1,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.shedDepth == 0 || cfg.shedDepth > cfg.queueCap {
		cfg.shedDepth = cfg.queueCap
	}
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		queue:    make(chan *pending, cfg.queueCap),
		rng:      rand.New(rand.NewSource(cfg.seed)),
		drainReq: make(chan struct{}),
		done:     make(chan struct{}),
		batch:    make([]*pending, 0, cfg.maxBatch),
		ops:      make([]wdm.BatchOp, 0, cfg.maxBatch),
	}
	s.perOpNanos.Store(2_000) // prior until the first batch calibrates it
	go s.dispatch()
	return s, nil
}

// Engine returns the wrapped engine, for its lock-free read API. The
// write path belongs to the Server.
func (s *Server) Engine() *wdm.ShardedEngine { return s.eng }

// Stats returns the server's cumulative outcome counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Submitted:  s.submitted.Load(),
		Acked:      s.acked.Load(),
		Failed:     s.failed.Load(),
		Shed:       s.shed.Load(),
		Expired:    s.expired.Load(),
		Retried:    s.retried.Load(),
		Panics:     s.panics.Load(),
		Batches:    s.batches.Load(),
		BatchedOps: s.batchedOps.Load(),
		Drained:    s.drained(),
	}
}

func (s *Server) drained() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// QueueDepth returns the current submission-queue occupancy.
func (s *Server) QueueDepth() int { return len(s.queue) }

// retryAfterHint estimates how long the backlog needs to drain below
// the shed threshold: the queued ops ahead of the caller (at least one,
// the caller's own) times the calibrated per-op service time.
func (s *Server) retryAfterHint() time.Duration {
	return time.Duration(int64(max(len(s.queue), 1)) * s.perOpNanos.Load())
}

// Submit hands a request to the coalescer and blocks until its
// definitive response: ack, terminal error, shed verdict or deadline
// expiry. The context's deadline travels with the request (expired
// requests are answered without engine work); context cancellation
// does not revoke a request already queued — the response still
// arrives, and the caller can discard it.
func (s *Server) Submit(ctx context.Context, req Request) Response {
	return <-s.SubmitAsync(ctx, req)
}

// SubmitAsync is Submit without the wait: the returned channel
// delivers exactly one Response. The shed/closed verdicts are decided
// synchronously (the channel is already loaded on return).
func (s *Server) SubmitAsync(ctx context.Context, req Request) <-chan Response {
	s.submitted.Add(1)
	p := &pending{req: req, done: make(chan Response, 1)}
	if dl, ok := ctx.Deadline(); ok {
		p.deadline = dl
	}
	// The whole enqueue runs under the intake read-lock (see intakeMu):
	// once Shutdown flips draining under the write lock, no submission
	// can reach the queue behind the final flush, so every accepted
	// request is guaranteed its definitive response. While we hold the
	// read-lock the dispatcher cannot have begun draining (drainReq
	// closes after the write lock), so a blocking send always has a
	// live consumer on the other end.
	s.intakeMu.RLock()
	defer s.intakeMu.RUnlock()
	if s.draining.Load() {
		s.failed.Add(1)
		p.done <- Response{Err: ErrServerClosed}
		return p.done
	}
	if !s.cfg.blocking {
		// Shed before queueing: a saturated queue, or a deadline the
		// backlog already overruns, gets an immediate verdict with a
		// backoff hint instead of a doomed wait.
		hint := s.retryAfterHint()
		if len(s.queue) >= s.cfg.shedDepth || (!p.deadline.IsZero() && time.Now().Add(hint).After(p.deadline) && len(s.queue) >= s.cfg.maxBatch) {
			s.shed.Add(1)
			p.done <- Response{Err: ErrShed, RetryAfter: hint}
			return p.done
		}
		select {
		case s.queue <- p:
		default:
			s.shed.Add(1)
			p.done <- Response{Err: ErrShed, RetryAfter: hint}
		}
		return p.done
	}
	// Blocking backpressure: wait for queue space, still bounded by the
	// caller's context so a stuck transport can abandon the submission
	// (the request is then never enqueued and the verdict is the
	// context's error).
	select {
	case s.queue <- p:
	case <-ctx.Done():
		s.expired.Add(1)
		p.done <- Response{Err: fmt.Errorf("serve: abandoned while blocked on full queue: %w", ctx.Err())}
	}
	return p.done
}

// Shutdown gracefully drains the server: intake stops (later Submits
// answer ErrServerClosed), the queue and the retry backlog flush so
// every accepted request receives its definitive response, and the
// engine closes — reads keep answering from its final snapshot.
// Shutdown returns the engine's Close error once the drain completes,
// or ctx's error if it expires first (the drain keeps running and
// still closes the engine; a second Shutdown call re-waits).
// Shutdown is idempotent and safe to call concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	// Flip draining under the intake write lock: when the lock
	// releases, every in-flight enqueue has finished and every later
	// submission sees the flag — the dispatcher's final flush observes
	// a queue no new request can enter.
	s.intakeMu.Lock()
	first := !s.draining.Swap(true)
	s.intakeMu.Unlock()
	if first {
		close(s.drainReq)
	}
	select {
	case <-s.done:
		return s.closeErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ── Dispatcher ─────────────────────────────────────────────────────────

// dispatch is the single coalescer goroutine: it batches whatever is
// queued whenever it is free (see collect), applies it, completes the
// futures, and services the retry backlog.
// On drain it flushes everything, closes the engine and exits.
func (s *Server) dispatch() {
	defer close(s.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		// Wait for work: the first queued request, a due retry, or the
		// drain signal. An armed backlog bounds the wait.
		var first *pending
		if due := s.backlogWait(); due >= 0 {
			timer.Reset(due)
			select {
			case first = <-s.queue:
			case <-timer.C:
			case <-s.drainReq:
				s.drain()
				return
			}
			stopTimer(timer)
		} else {
			select {
			case first = <-s.queue:
			case <-s.drainReq:
				s.drain()
				return
			}
		}
		s.collect(first)
		s.applyBatch(false)
	}
}

// backlogWait returns the wait until the earliest backlog retry is
// due, or -1 when the backlog is empty.
func (s *Server) backlogWait() time.Duration {
	if len(s.backlog) == 0 {
		return -1
	}
	d := time.Until(s.backlog[0].retryAt)
	if d < 0 {
		d = 0
	}
	return d
}

// collect fills s.batch: due retries first (they have already waited),
// then first and every other queued request, up to maxBatch. It never
// waits for more: requests arriving while this batch applies form the
// next one.
func (s *Server) collect(first *pending) {
	s.batch = s.batch[:0]
	now := time.Now()
	for len(s.backlog) > 0 && !s.backlog[0].retryAt.After(now) && len(s.batch) < s.cfg.maxBatch {
		s.batch = append(s.batch, heap.Pop(&s.backlog).(*pending))
	}
	if first != nil {
		s.batch = append(s.batch, first)
	}
	s.takeQueued()
}

// takeQueued appends queued requests to s.batch until it holds maxBatch
// or the queue is empty.
func (s *Server) takeQueued() {
	for len(s.batch) < s.cfg.maxBatch {
		select {
		case p := <-s.queue:
			s.batch = append(s.batch, p)
		default:
			return
		}
	}
}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// drain flushes everything still owed a response: queued requests in
// arrival order, then the whole retry backlog (their backoffs are
// forfeited — each gets one final engine attempt), then closes the
// engine. Every future completes before the engine does.
func (s *Server) drain() {
	for {
		s.batch = s.batch[:0]
		for len(s.backlog) > 0 && len(s.batch) < s.cfg.maxBatch {
			s.batch = append(s.batch, heap.Pop(&s.backlog).(*pending))
		}
		s.takeQueued()
		if len(s.batch) == 0 && len(s.backlog) == 0 {
			break
		}
		s.applyBatch(true)
	}
	s.closeErr = s.eng.Close()
}

// applyBatch applies s.batch: expired requests answer first (no engine
// work), barrier ops (FailArc/RestoreArc) split the batch, and the
// coalesced runs go through ApplyBatchInto under panic isolation.
// final suppresses retry scheduling (drain: last attempt).
func (s *Server) applyBatch(final bool) {
	now := time.Now()
	run := s.batch[:0] // reuse: compacted non-expired requests, in order
	for _, p := range s.batch {
		if !p.deadline.IsZero() && now.After(p.deadline) {
			s.expired.Add(1)
			p.done <- Response{Err: ErrDeadlineExceeded, Attempts: p.attempts}
			continue
		}
		run = append(run, p)
	}
	// Apply maximal coalesced segments between barrier ops.
	seg := 0
	for i, p := range run {
		if p.req.Kind == OpFailArc || p.req.Kind == OpRestoreArc {
			s.applyCoalesced(run[seg:i], final)
			s.applyBarrier(p)
			seg = i + 1
		}
	}
	s.applyCoalesced(run[seg:], final)
	s.batch = s.batch[:0]
}

// applyBarrier applies one FailArc/RestoreArc individually; these
// reconcile across lanes inside the engine and cannot ride a batch.
func (s *Server) applyBarrier(p *pending) {
	p.attempts++
	resp := func() (r Response) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				r = Response{Err: ErrPanic{Value: v}}
			}
		}()
		switch p.req.Kind {
		case OpFailArc:
			rep, err := s.eng.FailArc(p.req.Arc)
			return Response{Storm: rep, Err: err}
		default:
			n, err := s.eng.RestoreArc(p.req.Arc)
			return Response{Revived: n, Err: err}
		}
	}()
	resp.Attempts = p.attempts
	s.complete(p, resp)
}

// applyCoalesced turns the pendings into one engine batch, applies it
// (isolating panics), and routes each result to its future or — for
// transient failures with retry budget left — to the backlog.
func (s *Server) applyCoalesced(ps []*pending, final bool) {
	if len(ps) == 0 {
		return
	}
	s.ops = s.ops[:0]
	for _, p := range ps {
		switch p.req.Kind {
		case OpAdd:
			s.ops = append(s.ops, wdm.AddOp(p.req.Route))
		case OpRemove:
			s.ops = append(s.ops, wdm.RemoveOp(p.req.ID))
		default:
			s.ops = append(s.ops, wdm.RerouteOp(p.req.ID))
		}
		p.attempts++
	}
	t0 := time.Now()
	results, panicked := s.applyEngine(s.ops)
	if panicked {
		// The batch application panicked. Re-run op by op, each under
		// its own recover: exactly the panicking request fails with
		// ErrPanic, its batch-mates get their real results.
		s.panics.Add(1)
		results = s.applySingly(ps)
	}
	s.observeBatch(len(ps), time.Since(t0))
	now := time.Now()
	for i, p := range ps {
		res := results[i]
		if !final && res.Err != nil && p.attempts < s.cfg.retryMax && IsTransient(res.Err) {
			at := now.Add(s.backoff(p.attempts))
			if p.deadline.IsZero() || at.Before(p.deadline) {
				s.retried.Add(1)
				p.retryAt = at
				heap.Push(&s.backlog, p)
				continue
			}
		}
		s.complete(p, Response{ID: res.ID, Changed: res.Changed, Err: res.Err, Attempts: p.attempts})
	}
}

// applyEngine runs one ApplyBatchInto under a recover; panicked=true
// means results are invalid and the batch must re-run singly.
func (s *Server) applyEngine(ops []wdm.BatchOp) (results []wdm.BatchResult, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			panicked = true
		}
	}()
	if s.testApplyHook != nil {
		s.testApplyHook(ops)
	}
	s.results = s.eng.ApplyBatchInto(ops, s.results)
	return s.results, false
}

// applySingly is the panic-isolation slow path: every op applies alone,
// under its own recover.
func (s *Server) applySingly(ps []*pending) []wdm.BatchResult {
	out := make([]wdm.BatchResult, len(ps))
	for i, p := range ps {
		out[i] = func() (r wdm.BatchResult) {
			defer func() {
				if v := recover(); v != nil {
					r = wdm.BatchResult{Err: ErrPanic{Value: v}}
				}
			}()
			if s.testApplyHook != nil {
				op := [1]wdm.BatchOp{{Kind: wdm.BatchKind(p.req.Kind), Req: p.req.Route, ID: p.req.ID}}
				s.testApplyHook(op[:])
			}
			switch p.req.Kind {
			case OpAdd:
				id, err := s.eng.Add(p.req.Route)
				return wdm.BatchResult{ID: id, Err: err}
			case OpRemove:
				return wdm.BatchResult{ID: p.req.ID, Err: s.eng.Remove(p.req.ID)}
			default:
				changed, err := s.eng.Reroute(p.req.ID)
				return wdm.BatchResult{ID: p.req.ID, Changed: changed, Err: err}
			}
		}()
	}
	return out
}

// complete delivers a definitive response and counts it.
func (s *Server) complete(p *pending, resp Response) {
	if resp.Err == nil {
		s.acked.Add(1)
	} else {
		s.failed.Add(1)
	}
	p.done <- resp
}

// observeBatch folds one batch's per-op service time into the EWMA the
// shed hints are derived from (α = 1/8).
func (s *Server) observeBatch(ops int, elapsed time.Duration) {
	s.batches.Add(1)
	s.batchedOps.Add(int64(ops))
	if ops == 0 {
		return
	}
	per := elapsed.Nanoseconds() / int64(ops)
	old := s.perOpNanos.Load()
	s.perOpNanos.Store(old + (per-old)/8)
}

// backoff returns the jittered exponential server-side retry delay for
// a request about to spend attempt+1: base·2^(attempt-1), capped, with
// full jitter (uniform in (0, d]) so synchronized rejections decorrelate.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.cfg.retryBase << uint(attempt-1)
	if d > s.cfg.retryCapped || d <= 0 {
		d = s.cfg.retryCapped
	}
	return time.Duration(s.rng.Int63n(int64(d))) + 1
}

// ── Retry backlog ──────────────────────────────────────────────────────

// retryHeap orders backed-off requests by due time.
type retryHeap []*pending

func (h retryHeap) Len() int           { return len(h) }
func (h retryHeap) Less(i, j int) bool { return h[i].retryAt.Before(h[j].retryAt) }
func (h retryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *retryHeap) Push(x any)        { p := x.(*pending); p.heapIdx = len(*h); *h = append(*h, p) }
func (h *retryHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
