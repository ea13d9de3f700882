package wdm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/route"
)

// ErrEngineClosed is returned by mutating ShardedEngine methods after
// Close. Read-only queries (Len, Pi, NumLambda, Path, Provisioning,
// Verify, ...) keep working on the frozen state — the snapshot-backed
// ones lock-free, from the final published snapshot.
var ErrEngineClosed = errors.New("wdm: engine closed")

// DefaultSubshardThreshold is the component size (in vertices) at which
// NewShardedEngine decomposes a component into arc-disjoint regions and
// gives it one region lane per region. WithSubshardThreshold overrides;
// 0 disables.
const DefaultSubshardThreshold = 64

// ShardedID identifies a live request inside a ShardedEngine: the
// executable shard that owns it (one arc-disjoint region lane, or a
// component's overlay lane) plus its SessionID within that shard's
// session. Treat it as opaque.
type ShardedID struct {
	Shard int32
	ID    SessionID
}

// BatchKind selects the operation of a BatchOp.
type BatchKind uint8

// Batch operation kinds.
const (
	BatchAdd     BatchKind = iota // provision Req
	BatchRemove                   // tear down ID
	BatchReroute                  // re-route ID against current loads
)

// BatchOp is one churn event of an ApplyBatch call.
type BatchOp struct {
	Kind BatchKind
	Req  route.Request // BatchAdd
	ID   ShardedID     // BatchRemove, BatchReroute
}

// AddOp returns the batch event provisioning req.
func AddOp(req route.Request) BatchOp { return BatchOp{Kind: BatchAdd, Req: req} }

// RemoveOp returns the batch event tearing down id.
func RemoveOp(id ShardedID) BatchOp { return BatchOp{Kind: BatchRemove, ID: id} }

// RerouteOp returns the batch event re-routing id.
func RerouteOp(id ShardedID) BatchOp { return BatchOp{Kind: BatchReroute, ID: id} }

// BatchResult is the outcome of one BatchOp, at the same index in
// ApplyBatch's result slice as the op in its input. A failed op reports
// Err and leaves the engine's state for that request untouched; ID is
// only meaningful when Err is nil (for BatchAdd it carries the id the
// new request was assigned).
type BatchResult struct {
	ID      ShardedID
	Changed bool // BatchReroute: the route changed
	Err     error
}

// ShardedEngine is the concurrent counterpart of a Session. The
// topology is partitioned twice:
//
//  1. into weakly connected components (digraph.PartitionComponents) —
//     dipaths cannot cross components, so components are fully
//     independent;
//  2. components at or above the sub-shard threshold are further split
//     into arc-disjoint regions (digraph.PartitionRegions): the
//     biconnected blocks of the underlying undirected graph, which meet
//     only at cut vertices. Every simple path between two co-region
//     vertices stays inside the region, so region-confined requests
//     route, load and color on a compact region sub-session exactly as
//     they would globally, and paths in different regions never share
//     an arc.
//
// Every component has one shape: an overlay lane — a session over the
// whole component view — plus zero or more region lanes, one per
// region. Requests whose endpoints share a region run on that region's
// lane; everything else (every request of a component without region
// lanes) runs on the overlay lane. Each lane owns its router, load
// tracker, conflict graph and colorer outright, so the per-event hot
// path takes no locks or atomics. ApplyBatch groups a batch by owning
// lane and runs two phases on a persistent worker pool (started at
// construction, shut down by Close): phase 1 executes region lanes in
// parallel; phase 2 runs one serialized task per touched component,
// components in parallel, which folds the region lanes' path deltas
// into the overlay tracker, applies the component's overlay ops in
// input order, and scatters the overlay paths' per-arc loads back into
// the region trackers. The overlay session's tracker therefore holds
// the component's exact combined load view (π stays exact), and each
// region tracker holds the exact loads on its own arcs, which is all
// min-load routing inside a region can ever consult. Without region
// lanes the fold and scatter are empty and phase 2 is just the
// component's ops.
//
// Wavelength aggregation is banded: regions of one component are
// arc-disjoint, so their λ counts aggregate as a max, exactly like
// components; the overlay lane's classes are reported offset above the
// region maximum (overlay wavelength w maps to maxᵣλᵣ + w), so overlay
// paths — which do share arcs with region paths — can never collide
// with them, and a component's λ is maxᵣλᵣ + λ_overlay (the empty
// region maximum is 0). Across components λ remains the max. π is the
// max over components; the merged Provisioning deduplicates ADMs
// globally.
//
// All methods are safe for concurrent use: one engine mutex serialises
// API entry, so batches never interleave. Per-lane event order is the
// input order; ops on one component split between region lanes and the
// overlay lane are reconciled at the batch boundary (the overlay lane
// applies after the region lanes, whatever the input interleaving).
// Close waits for the in-flight batch, stops the worker pool and
// freezes the engine: further mutations return ErrEngineClosed,
// queries keep answering, lock-free, from the final published snapshot.
//
// Reads never block writes: every mutation boundary publishes an
// immutable EngineSnapshot through one atomic pointer (see
// snapshot.go), and the read-only API answers from it without touching
// the engine mutex.
type ShardedEngine struct {
	mu      sync.Mutex
	net     *Network
	comps   []*engineComponent
	shards  []*engineShard   // flattened executable units; ShardedID.Shard indexes this
	label   []int32          // global vertex -> owning component
	localV  []digraph.Vertex // global vertex -> vertex inside its component's view
	arcComp []int32          // global arc -> owning component
	arcLoc  []digraph.ArcID  // global arc -> arc inside its component's view
	workers int
	pool    *workerPool
	closed  bool

	// Engine-level failure counters (per-lane detail lives in the
	// sessions' FailureStats; see Stats).
	cuts       int
	restores   int
	stormNanos int64

	// Wavelength budget (0 = unlimited); see WithEngineWavelengthBudget.
	budget int

	// The session options every lane is opened with (component merges
	// open new lanes), the count of live capacity adds and the arcs of
	// the adds a lane refused, which stay failed (see addarc.go).
	sessionOpts []SessionOption
	arcAdds     int
	refused     map[digraph.ArcID]bool

	// Batch-scoped scratch, reused across ApplyBatch calls.
	p1Scratch   []int32 // phase-1 shard indices
	p2Scratch   []int32 // phase-2 component indices
	compStamp   []uint64
	batchSerial uint64

	// Lock-free query plane (see snapshot.go): the currently published
	// snapshot, its sequence counter, the per-publication component
	// dirtiness scratch, and the buffer recycling pools.
	snap          atomic.Pointer[EngineSnapshot]
	pubSeq        uint64
	snapCompDirty []bool
	tablePool     sync.Pool // *snapTable
	vecPool       sync.Pool // *snapVec
}

// shardKind distinguishes the two lanes of a component.
type shardKind uint8

const (
	shardRegion  shardKind = iota // one arc-disjoint region of a component
	shardOverlay                  // a component's serialized lane over its whole view
)

// engineShard is one executable unit of the engine. Everything below is
// owned exclusively by the shard; during ApplyBatch at most one worker
// touches it at a time (region lanes in phase 1, overlay lanes in their
// component's phase-2 task).
type engineShard struct {
	idx  int32
	kind shardKind
	comp *engineComponent
	sess *Session

	// Identifier translations from shard-local to the engine topology
	// (composed through the component for region shards).
	toGlobalVertex []digraph.Vertex
	toGlobalArc    []digraph.ArcID
	// Region shards also translate to component-local identifiers for
	// the batch-boundary reconciliation.
	toCompArc    []digraph.ArcID
	toCompVertex []digraph.Vertex

	ops    []shardOp    // scratch: this batch's ops
	deltas []shardDelta // batch-scoped path deltas (components with region lanes only)

	// dirty marks the shard's session as mutated since the last snapshot
	// publication, so publishLocked rebuilds its entry table. Set by the
	// one worker executing the shard (or the failure dispatch, under
	// e.mu), cleared at publication.
	dirty bool

	// Merge state (see addarc.go). A retired shard no longer executes
	// ops: a component merge drained its session and relocated its
	// entries; forward maps every SessionID the shard ever handed out
	// (and still held a live or dark entry at retirement) to the
	// relocated id. forward is written once at retirement and immutable
	// afterwards, so published snapshots may reference it lock-free.
	retired bool
	forward map[SessionID]ShardedID

	// escal stashes region-lane adds that failed with ErrNoRoute on a
	// component marked escalate (a capacity add bridging its regions may
	// have opened routes no region view knows): phase 2 re-runs them on
	// the overlay lane, merged with the overlay's own ops in input order.
	escal []shardOp
}

// shardOp is one dispatched batch event: the index into the caller's
// op slice, the shard-local request (BatchAdd only), and the resolved
// shard-local session id (BatchRemove/BatchReroute only — dispatch
// chases retired shards' forward maps, so the executing lane never
// sees a stale handle).
type shardOp struct {
	idx int32
	req route.Request
	id  SessionID
}

// shardDelta records one shard-local path the lane added or removed
// during the current batch, for the phase-2 tracker reconciliation.
type shardDelta struct {
	add  bool
	path *dipath.Path
}

// engineComponent is one weakly connected component of the engine
// topology: an overlay lane over the whole view plus one region lane per
// region. regions is nil and regionShards empty when the component is
// below the sub-shard threshold or its partition yields a single region
// (a "regionless" component): its overlay lane then carries all of its
// traffic, admits against the full engine budget and logs no path
// deltas.
type engineComponent struct {
	idx          int32
	view         digraph.ComponentView
	regions      *digraph.Regions
	regionShards []*engineShard
	overlay      *engineShard

	// Capacity-add state (see addarc.go): whether the component was
	// dissolved by a cross-component merge (dead components keep their
	// slot so shard and component indices stay stable), and whether
	// region lanes must escalate ErrNoRoute adds to the overlay (a
	// capacity add bridging regions made region views pessimistic about
	// routability).
	dead     bool
	escalate bool

	// Snapshot aggregate cache (see snapshot.go): λ (with the overlay
	// banding base), π, and live/dark counts as of the last publication
	// that found this component dirty. Maintained under e.mu.
	aggLambda        int
	aggRegionBase    int // region λ max — the overlay band's base
	aggOverlayLambda int // 0 on regionless components (see OverlayLambda)
	aggPi            int
	aggLive          int
	aggDark          int
}

// shardedConfig collects NewShardedEngine options.
type shardedConfig struct {
	workers     int
	subshard    int
	budget      int
	sessionOpts []SessionOption
}

// ShardedOption configures NewShardedEngine.
type ShardedOption func(*shardedConfig) error

// WithShardWorkers bounds the number of workers ApplyBatch fans shards
// out to (default: runtime.GOMAXPROCS(0)). The engine keeps a
// persistent pool of n-1 worker goroutines (the caller is the n-th), so
// small batches pay no spawn cost; Close stops the pool.
func WithShardWorkers(n int) ShardedOption {
	return func(c *shardedConfig) error {
		if n < 1 {
			return fmt.Errorf("wdm: shard workers must be >= 1, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithShardSessionOptions forwards session options (routing and
// admission strategies) to every lane session, region and overlay
// lanes alike. On a budgeted engine the lane budget overrides a
// forwarded WithWavelengthBudget.
func WithShardSessionOptions(opts ...SessionOption) ShardedOption {
	return func(c *shardedConfig) error {
		c.sessionOpts = append(c.sessionOpts, opts...)
		return nil
	}
}

// WithSubshardThreshold sets the component size (in vertices) at which
// a weakly connected component is decomposed into arc-disjoint regions
// and given one region lane per region (default
// DefaultSubshardThreshold). 0 disables sub-sharding entirely — every
// component runs on its overlay lane alone, with no region lanes.
// Components whose decomposition yields a single region (fully
// biconnected) get no region lanes regardless.
func WithSubshardThreshold(n int) ShardedOption {
	return func(c *shardedConfig) error {
		if n < 0 {
			return fmt.Errorf("wdm: sub-shard threshold must be >= 0, got %d", n)
		}
		c.subshard = n
		return nil
	}
}

// WithEngineWavelengthBudget caps every lane of the engine at a global
// wavelength budget of w: because λ aggregates as a max over components
// (and over the arc-disjoint regions inside one), a global budget is
// exactly a per-shard budget, so admission stays on the lock-free
// per-shard hot path with no cross-shard coordination. A component
// without region lanes admits against w outright on its overlay lane;
// a component with region lanes splits w into a region band (w minus
// the overlay slice) and an overlay band of max(1, w/4), so the banded
// aggregation can never exceed w. A budget too small to split (w = 1)
// fails construction on a layout with region lanes.
// Over-budget requests fail their batch op with ErrBudgetExceeded (or
// go to the admission strategy configured via WithShardSessionOptions);
// per-lane counts aggregate into EngineStats. w <= 0 means unlimited.
func WithEngineWavelengthBudget(w int) ShardedOption {
	return func(c *shardedConfig) error {
		if w < 0 {
			return fmt.Errorf("wdm: wavelength budget must be >= 0, got %d", w)
		}
		c.budget = w
		return nil
	}
}

// NewShardedEngine partitions the network's topology into weakly
// connected components, decomposes giant components into arc-disjoint
// regions (see WithSubshardThreshold), opens one session per executable
// shard and starts the persistent worker pool. Callers should Close the
// engine when done with mutations to stop the pool.
func (n *Network) NewShardedEngine(opts ...ShardedOption) (*ShardedEngine, error) {
	cfg := shardedConfig{workers: runtime.GOMAXPROCS(0), subshard: DefaultSubshardThreshold}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	overlaySlice := max(1, cfg.budget/4)
	views, label, localV := n.Topology.PartitionComponents()
	e := &ShardedEngine{
		net:         n,
		comps:       make([]*engineComponent, 0, len(views)),
		label:       label,
		localV:      localV,
		workers:     cfg.workers,
		budget:      cfg.budget,
		sessionOpts: cfg.sessionOpts,
		compStamp:   make([]uint64, len(views)),
	}
	for ci, view := range views {
		comp := &engineComponent{idx: int32(ci), view: view}
		if cfg.subshard > 0 && view.G.NumVertices() >= cfg.subshard {
			if r := view.G.PartitionRegions(); r.NumRegions() >= 2 {
				comp.regions = r
			}
		}
		overlayBudget := cfg.budget
		if comp.regions != nil {
			if cfg.budget > 0 && cfg.budget-overlaySlice < 1 {
				return nil, fmt.Errorf(
					"wdm: wavelength budget %d cannot band a two-level component (overlay slice %d leaves no region budget); use WithSubshardThreshold(0)",
					cfg.budget, overlaySlice)
			}
			overlayBudget = overlaySlice
			for ri, rv := range comp.regions.Views {
				sess, err := e.newLaneSession(rv.G, cfg.budget-overlaySlice, fmt.Sprintf("component %d region %d", ci, ri))
				if err != nil {
					return nil, err
				}
				comp.regionShards = append(comp.regionShards, e.addRegionShard(comp, rv, sess))
			}
		}
		sess, err := e.newLaneSession(view.G, overlayBudget, fmt.Sprintf("component %d overlay", ci))
		if err != nil {
			return nil, err
		}
		comp.overlay = e.addShard(&engineShard{
			kind: shardOverlay, comp: comp, sess: sess,
			toGlobalVertex: view.ToGlobalVertex,
			toGlobalArc:    view.ToGlobalArc,
		})
		if comp.regions != nil {
			// Region and overlay lanes log every tracker mutation — batch
			// ops and storm reroutes alike — for the batch-boundary
			// reconciliation; a regionless component has nothing to
			// reconcile.
			for _, rs := range comp.regionShards {
				rs.logDeltas()
			}
			comp.overlay.logDeltas()
		}
		e.comps = append(e.comps, comp)
	}
	// Inverse arc maps for O(1) failure dispatch.
	e.arcComp = make([]int32, n.Topology.NumArcs())
	e.arcLoc = make([]digraph.ArcID, n.Topology.NumArcs())
	for _, c := range e.comps {
		for la, ga := range c.view.ToGlobalArc {
			e.arcComp[ga] = c.idx
			e.arcLoc[ga] = digraph.ArcID(la)
		}
	}
	e.snapCompDirty = make([]bool, len(e.comps))
	e.publishLocked() // seed the query plane with the empty snapshot
	// The pool starts last: constructor error paths leak no goroutines.
	if e.workers > 1 {
		e.pool = newWorkerPool(e.workers - 1)
	}
	return e, nil
}

// newLaneSession opens one lane session over g with the given lane
// budget (ignored when the engine is unbudgeted), applying the
// engine's forwarded session options. Used at construction and by
// component merges.
func (e *ShardedEngine) newLaneSession(g *digraph.Digraph, budget int, what string) (*Session, error) {
	subnet := &Network{Topology: g, Wavelengths: e.net.Wavelengths}
	opts := e.sessionOpts
	if e.budget > 0 {
		// The lane budget rides after the caller's session options, so
		// the engine's banding always wins over a stray
		// WithWavelengthBudget forwarded through session options.
		opts = append(opts[:len(opts):len(opts)], WithWavelengthBudget(budget))
	}
	sess, err := subnet.NewSession(opts...)
	if err != nil {
		return nil, fmt.Errorf("wdm: %s: %w", what, err)
	}
	return sess, nil
}

// addShard appends a shard to the flattened layout, assigning its
// index. The shard is born dirty so the next publication builds its
// snapshot table.
func (e *ShardedEngine) addShard(sh *engineShard) *engineShard {
	sh.idx = int32(len(e.shards))
	sh.dirty = true
	e.shards = append(e.shards, sh)
	return sh
}

// addRegionShard appends a region lane of c over the region view rv
// (whose identifiers are component-local), composing its translations
// to the engine topology through the component view.
func (e *ShardedEngine) addRegionShard(c *engineComponent, rv digraph.ComponentView, sess *Session) *engineShard {
	gv := make([]digraph.Vertex, len(rv.ToGlobalVertex))
	for i, cv := range rv.ToGlobalVertex {
		gv[i] = c.view.ToGlobalVertex[cv]
	}
	ga := make([]digraph.ArcID, len(rv.ToGlobalArc))
	for i, ca := range rv.ToGlobalArc {
		ga[i] = c.view.ToGlobalArc[ca]
	}
	return e.addShard(&engineShard{
		kind: shardRegion, comp: c, sess: sess,
		toGlobalVertex: gv,
		toGlobalArc:    ga,
		toCompArc:      rv.ToGlobalArc,
		toCompVertex:   rv.ToGlobalVertex,
	})
}

// logDeltas installs the session hook through which the lane logs
// every tracker mutation into sh.deltas for the batch-boundary
// reconciliation.
func (sh *engineShard) logDeltas() {
	sh.sess.setPathDeltaHook(func(add bool, p *dipath.Path) {
		sh.deltas = append(sh.deltas, shardDelta{add: add, path: p})
	})
}

// lambda returns the lane's wavelength count, an O(1) read of its
// incremental colorer.
func (sh *engineShard) lambda() int { return sh.sess.coloring.NumLambda() }

// Close waits for any in-flight batch, stops the persistent worker
// pool and freezes the engine: subsequent mutations return
// ErrEngineClosed, queries keep answering — lock-free — from the final
// published snapshot. Close is idempotent and safe to call
// concurrently with batches.
func (e *ShardedEngine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
	}
	// Publish the frozen state so lock-free readers see Closed() flip
	// and keep answering from the final snapshot.
	e.publishLocked()
	return nil
}

// NumShards returns the number of executable shards: one overlay lane
// per component plus every region lane, retired shards included (the
// flattened layout only ever grows, so ShardedID.Shard stays a stable
// index).
func (e *ShardedEngine) NumShards() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.shards)
}

// NumComponents returns the number of weakly connected components of
// the engine topology.
func (e *ShardedEngine) NumComponents() int { return len(e.comps) }

// Workers returns the ApplyBatch worker bound.
func (e *ShardedEngine) Workers() int { return e.workers }

// LaneStats aggregates one lane flavour's traffic across the engine:
// cumulative admission outcomes (requests offered, accepted, rejected,
// and the accepted subdivisions) plus the current live occupancy.
// Sessions count every offer even without a budget, so the region-vs-
// overlay traffic split — the serialized-overlay pressure the two-level
// layout caps out on — is observable without a profiler.
type LaneStats struct {
	Requests   int
	Accepted   int
	Rejected   int
	BestEffort int
	Retried    int
	Live       int

	// Failure counters: cumulative storm outcomes and current parked
	// occupancy for this lane flavour.
	Affected int // live paths hit by fiber cuts
	Restored int // paths rerouted by restoration storms
	Parked   int // paths parked dark (unrestorable at cut time)
	Revived  int // dark entries brought back by re-admission sweeps
	Promoted int // best-effort entries upgraded to budgeted service
	Dark     int // entries currently parked dark
}

func (l *LaneStats) add(s *Session) {
	st := s.AdmissionStats()
	l.Requests += st.Requests
	l.Accepted += st.Accepted
	l.Rejected += st.Rejected
	l.BestEffort += st.BestEffort
	l.Retried += st.Retried
	l.Live += s.Len()
	fs := s.FailureStats()
	l.Affected += fs.Affected
	l.Restored += fs.Restored
	l.Parked += fs.Parked
	l.Revived += fs.Revived
	l.Promoted += fs.Promoted
	l.Dark += s.DarkLive()
}

// EngineStats summarises the engine layout, the two-level lanes'
// occupancy, and the per-lane traffic shares with their admission
// outcomes (λ = max aggregation makes the engine budget a per-lane
// budget, so the lane counters add up to the engine's blocking
// behaviour exactly).
type EngineStats struct {
	Components   int // weakly connected components
	TwoLevel     int // components with region lanes
	RegionShards int // region lanes across all components
	OverlayLive  int // live requests across the overlay lanes of components with region lanes

	Budget int // engine wavelength budget (0 = unlimited)

	Cuts       int   // fiber cuts injected via FailArc
	Restores   int   // repairs applied via RestoreArc
	FailedArcs int   // arcs currently cut
	StormNanos int64 // cumulative wall time spent inside restoration storms

	ArcAdds int // live capacity adds applied via AddArc

	Plain   LaneStats // lanes of components without region lanes
	Region  LaneStats // region lanes
	Overlay LaneStats // overlay lanes of components with region lanes
}

// Requests returns the total offers across all lanes.
func (st EngineStats) Requests() int {
	return st.Plain.Requests + st.Region.Requests + st.Overlay.Requests
}

// Accepted returns the total accepted offers across all lanes.
func (st EngineStats) Accepted() int {
	return st.Plain.Accepted + st.Region.Accepted + st.Overlay.Accepted
}

// Rejected returns the total budget rejections across all lanes.
func (st EngineStats) Rejected() int {
	return st.Plain.Rejected + st.Region.Rejected + st.Overlay.Rejected
}

// Dark returns the entries currently parked dark across all lanes.
func (st EngineStats) Dark() int {
	return st.Plain.Dark + st.Region.Dark + st.Overlay.Dark
}

// Restored returns the total storm restorations across all lanes.
func (st EngineStats) Restored() int {
	return st.Plain.Restored + st.Region.Restored + st.Overlay.Restored
}

// statsLocked assembles EngineStats from the live sessions; the caller
// holds e.mu. Snapshot publication stores its result as Stats.
func (e *ShardedEngine) statsLocked() EngineStats {
	st := EngineStats{
		Components: len(e.comps),
		Budget:     e.budget,
		Cuts:       e.cuts,
		Restores:   e.restores,
		FailedArcs: e.net.Topology.NumFailedArcs(),
		StormNanos: e.stormNanos,
		ArcAdds:    e.arcAdds,
	}
	for _, c := range e.comps {
		if c.dead {
			continue
		}
		if len(c.regionShards) > 0 {
			st.TwoLevel++
			st.RegionShards += len(c.regionShards)
			st.OverlayLive += c.overlay.sess.Len()
		}
	}
	for _, sh := range e.shards {
		// A live component never gains or loses region lanes (merges
		// open regionless components), so a retired lane keeps the
		// bucket it counted in while live.
		l := &st.Plain
		switch {
		case sh.kind == shardRegion:
			l = &st.Region
		case len(sh.comp.regionShards) > 0:
			l = &st.Overlay
		}
		// Retired shards still contribute their cumulative admission and
		// failure counters (their drained sessions hold no live state).
		l.add(sh.sess)
	}
	return st
}

// Budget returns the engine's wavelength budget (0 = unlimited).
func (e *ShardedEngine) Budget() int { return e.budget }

// ── Dispatch ───────────────────────────────────────────────────────────

// dispatchAdd resolves the executable shard of an add request and the
// request in that shard's local identifiers. Out-of-range endpoints and
// cross-component pairs (which no dipath can satisfy — the same answer
// a full search would reach) are rejected in O(1); co-region pairs go
// to their region lane and everything else to the overlay lane. A pair
// a fiber cut split goes to its lane too, whose search answers
// ErrNoRoute.
func (e *ShardedEngine) dispatchAdd(req route.Request) (*engineShard, route.Request, error) {
	n := len(e.label)
	if req.Src < 0 || req.Dst < 0 || int(req.Src) >= n || int(req.Dst) >= n {
		return nil, req, fmt.Errorf("wdm: vertex out of range")
	}
	ci := e.label[req.Src]
	if ci != e.label[req.Dst] {
		return nil, req, route.ErrNoRoute{Req: req}
	}
	c := e.comps[ci]
	lsrc, ldst := e.localV[req.Src], e.localV[req.Dst]
	if c.regions != nil {
		if r, ru, rv, ok := c.regions.CommonRegion(lsrc, ldst); ok {
			return c.regionShards[r], route.Request{Src: ru, Dst: rv}, nil
		}
	}
	return c.overlay, route.Request{Src: lsrc, Dst: ldst}, nil
}

// shardOf resolves a ShardedID's shard, rejecting ids the engine never
// issued.
func (e *ShardedEngine) shardOf(id ShardedID) (*engineShard, error) {
	if id.Shard < 0 || int(id.Shard) >= len(e.shards) {
		return nil, fmt.Errorf("wdm: unknown shard %d", id.Shard)
	}
	return e.shards[id.Shard], nil
}

// resolveID resolves a ShardedID to the live shard currently holding
// the entry and its session id there, chasing retired shards' forward
// maps — component merges relocate entries, but callers keep using the
// handle they were issued. The hop
// count is bounded by the shard count (each hop lands on a
// strictly-newer shard), so a corrupted handle cannot loop.
func (e *ShardedEngine) resolveID(id ShardedID) (*engineShard, SessionID, error) {
	sh, err := e.shardOf(id)
	if err != nil {
		return nil, 0, err
	}
	lid := id.ID
	for hops := 0; sh.retired; hops++ {
		next, ok := sh.forward[lid]
		if !ok || hops >= len(e.shards) {
			return nil, 0, fmt.Errorf("wdm: session id %d on retired shard %d: %w", lid, sh.idx, ErrUnknownSession)
		}
		sh, lid = e.shards[next.Shard], next.ID
	}
	return sh, lid, nil
}

// globalizeErr rewrites shard-local vertex identifiers in a session
// error back to the engine topology, so callers never see ids from the
// compact shard view (which name different global vertices). prefix
// restores the operation context the rebuilt error would otherwise lose
// ("wdm: routing" / "wdm: rerouting"). The session's budget refusal
// names no vertex, so it is returned as it is, without the errors.As
// walk.
func (sh *engineShard) globalizeErr(prefix string, err error) error {
	if err == sh.sess.budgetErr {
		return err
	}
	var nr route.ErrNoRoute
	if !errors.As(err, &nr) {
		return err
	}
	n := len(sh.toGlobalVertex)
	if nr.Req.Src < 0 || int(nr.Req.Src) >= n || nr.Req.Dst < 0 || int(nr.Req.Dst) >= n {
		return err
	}
	return fmt.Errorf("%s: %w", prefix, route.ErrNoRoute{Req: route.Request{
		Src: sh.toGlobalVertex[nr.Req.Src],
		Dst: sh.toGlobalVertex[nr.Req.Dst],
	}})
}

// apply executes one op against the shard. Called by at most one worker
// per shard at a time. so carries the shard-local request (BatchAdd)
// or the resolved shard-local session id (BatchRemove/BatchReroute —
// dispatch already chased forward maps, so so.id is live here even
// when op.ID names a retired shard; results keep reporting the
// caller's original handle). Lanes of components with region lanes log
// the path deltas for the phase-2 tracker reconciliation through their
// session's path-delta hook — every tracker mutation (op-driven or
// storm-driven) lands in sh.deltas, so apply itself captures no
// before/after paths.
func (sh *engineShard) apply(e *ShardedEngine, op BatchOp, so shardOp) BatchResult {
	sh.dirty = true // even a failed op may have mutated admission counters
	switch op.Kind {
	case BatchAdd:
		id, err := sh.sess.Add(so.req)
		if err != nil {
			return BatchResult{Err: sh.globalizeErr("wdm: routing", err)}
		}
		return BatchResult{ID: ShardedID{Shard: sh.idx, ID: id}}
	case BatchRemove:
		return BatchResult{ID: op.ID, Err: sh.sess.Remove(so.id)}
	case BatchReroute:
		changed, err := sh.sess.Reroute(so.id)
		if err != nil {
			err = sh.globalizeErr("wdm: rerouting", err)
		}
		return BatchResult{ID: op.ID, Changed: changed, Err: err}
	default:
		return BatchResult{Err: fmt.Errorf("wdm: unknown batch op kind %d", op.Kind)}
	}
}

// ── Batch execution ────────────────────────────────────────────────────

// ApplyBatch applies a slice of churn events, grouping them by owning
// shard and executing phase 1 (region lanes) in parallel on the
// persistent pool, then phase 2 (overlay lanes and the tracker
// reconciliation) with one serialized task per touched component,
// components in parallel. Results are parallel to ops; per-shard event
// order is the input order. Ops that cannot be dispatched (out-of-range
// vertices, cross-component requests, unknown shards) fail individually
// without aborting the batch.
func (e *ShardedEngine) ApplyBatch(ops []BatchOp) []BatchResult {
	return e.ApplyBatchInto(ops, nil)
}

// ApplyBatchInto is ApplyBatch with a caller-owned results buffer:
// results is resized to len(ops) reusing its capacity (and cleared —
// stale entries never leak into the new batch), so a steady-state
// caller recycling the returned slice pays no per-batch allocation for
// it. Passing nil behaves exactly like ApplyBatch.
func (e *ShardedEngine) ApplyBatchInto(ops []BatchOp, results []BatchResult) []BatchResult {
	if cap(results) >= len(ops) {
		results = results[:len(ops)]
		clear(results)
	} else {
		results = make([]BatchResult, len(ops))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		for i := range results {
			results[i].Err = ErrEngineClosed
		}
		return results
	}
	e.applyLocked(ops, results)
	return results
}

// serialBatchThreshold is the batch size (in events) below which
// ApplyBatch runs entirely inline: distributing ~1µs events across
// workers costs more in handoff and wake-up (~2µs) than it saves, so
// tiny batches skip the pool altogether — cheaper than both the pool
// handoff and the per-batch goroutine spawn it replaced (measured on
// batch=8 churn over a four-component topology).
const serialBatchThreshold = 16

func (e *ShardedEngine) applyLocked(ops []BatchOp, results []BatchResult) {
	p1, p2 := e.group(ops, results)
	serial := len(ops) <= serialBatchThreshold
	e.fanOut(serial, len(p1), func(i int) {
		sh := e.shards[p1[i]]
		escalating := sh.comp.escalate
		for _, so := range sh.ops {
			res := sh.apply(e, ops[so.idx], so)
			if escalating && res.Err != nil && ops[so.idx].Kind == BatchAdd {
				// On an escalating component a region ErrNoRoute no longer
				// proves the pair globally unroutable (a capacity add
				// bridging regions made the region view pessimistic): stash
				// the add, translated to component vertices, for the
				// overlay lane's phase-2 pass.
				var nr route.ErrNoRoute
				if errors.As(res.Err, &nr) {
					sh.escal = append(sh.escal, shardOp{idx: so.idx, req: route.Request{
						Src: sh.toCompVertex[so.req.Src],
						Dst: sh.toCompVertex[so.req.Dst],
					}})
					continue
				}
			}
			results[so.idx] = res
		}
		sh.ops = sh.ops[:0]
	})
	e.fanOut(serial, len(p2), func(i int) {
		c := e.comps[p2[i]]
		c.overlay.dirty = true // fold/scatter move the combined load view
		c.overlayPhase(e, ops, results)
	})
	e.publishLocked()
}

// group routes each op to its shard's mailbox, failing undispatchable
// ops in place. It returns the phase-1 region lanes (in first-touch
// order) and the components that need a phase-2 task (any traffic this
// batch), also in first-touch order.
func (e *ShardedEngine) group(ops []BatchOp, results []BatchResult) (p1, p2 []int32) {
	p1, p2 = e.p1Scratch[:0], e.p2Scratch[:0]
	e.batchSerial++
	enqueue := func(sh *engineShard, i int, req route.Request, lid SessionID) {
		if e.compStamp[sh.comp.idx] != e.batchSerial {
			e.compStamp[sh.comp.idx] = e.batchSerial
			p2 = append(p2, sh.comp.idx)
		}
		if sh.kind == shardRegion && len(sh.ops) == 0 {
			p1 = append(p1, sh.idx)
		}
		sh.ops = append(sh.ops, shardOp{idx: int32(i), req: req, id: lid})
	}
	for i, op := range ops {
		switch op.Kind {
		case BatchAdd:
			sh, lreq, err := e.dispatchAdd(op.Req)
			if err != nil {
				results[i] = BatchResult{Err: err}
				continue
			}
			enqueue(sh, i, lreq, 0)
		default:
			sh, lid, err := e.resolveID(op.ID)
			if err != nil {
				results[i] = BatchResult{Err: err}
				continue
			}
			enqueue(sh, i, route.Request{}, lid)
		}
	}
	e.p1Scratch, e.p2Scratch = p1, p2
	return p1, p2
}

// overlayPhase is a component's phase-2 task, serialized per
// component: (a) fold the region lanes' batch deltas into the overlay
// tracker — after which it is the component's exact combined load view
// again; (b) apply the overlay lane's ops in input order; (c) scatter
// the overlay deltas' per-arc loads into the region trackers, so each
// region lane keeps the exact loads on its own arcs for min-load
// routing and π.
func (c *engineComponent) overlayPhase(e *ShardedEngine, ops []BatchOp, results []BatchResult) {
	c.foldRegionDeltas()
	oops := c.overlay.ops
	if c.escalate {
		// Merge region-lane escalations (ErrNoRoute adds a bridging
		// capacity add may have made routable) with the overlay's own
		// ops, in input order — the merged order is a function of the
		// batch alone, so outcomes stay deterministic across worker
		// schedules.
		merged := false
		for _, rs := range c.regionShards {
			if len(rs.escal) > 0 {
				oops = append(oops, rs.escal...)
				rs.escal = rs.escal[:0]
				merged = true
			}
		}
		if merged {
			sort.Slice(oops, func(i, j int) bool { return oops[i].idx < oops[j].idx })
		}
	}
	for _, so := range oops {
		results[so.idx] = c.overlay.apply(e, ops[so.idx], so)
	}
	c.overlay.ops = oops[:0]
	c.scatterOverlayDeltas()
}

// foldRegionDeltas replays the region lanes' logged path deltas into
// the overlay tracker, restoring it to the component's exact combined
// load view. Shared by the batch phase-2 task and the failure dispatch
// (storms mutate region lanes through the same hook batch ops do).
func (c *engineComponent) foldRegionDeltas() {
	ot := c.overlay.sess.tracker
	for _, rs := range c.regionShards {
		for _, d := range rs.deltas {
			for _, a := range d.path.Arcs() {
				if d.add {
					ot.AddArc(rs.toCompArc[a])
				} else {
					ot.RemoveArc(rs.toCompArc[a])
				}
			}
		}
		rs.deltas = rs.deltas[:0]
	}
}

// scatterOverlayDeltas replays the overlay lane's logged path deltas
// into the region trackers, so every region lane keeps the exact loads
// on its own arcs.
func (c *engineComponent) scatterOverlayDeltas() {
	for _, d := range c.overlay.deltas {
		for _, a := range d.path.Arcs() {
			rs, la := c.regionArc(a)
			if rs == nil {
				// Overlay-owned arc (a capacity add that bridges regions
				// belongs to no region lane); its load lives only in the
				// overlay tracker.
				continue
			}
			if d.add {
				rs.sess.tracker.AddArc(la)
			} else {
				rs.sess.tracker.RemoveArc(la)
			}
		}
	}
	c.overlay.deltas = c.overlay.deltas[:0]
}

// regionArc resolves a component-local arc to the region lane that
// owns it and the arc's identifier there. It returns a nil lane for
// overlay-owned arcs and on components without region lanes.
func (c *engineComponent) regionArc(ca digraph.ArcID) (*engineShard, digraph.ArcID) {
	if c.regions == nil {
		return nil, -1
	}
	ri := c.regions.ArcRegion[ca]
	if ri < 0 {
		return nil, -1
	}
	return c.regionShards[ri], c.regions.LocalArc[ca]
}

// Add provisions a single request (see ApplyBatch for the batched
// form).
func (e *ShardedEngine) Add(req route.Request) (ShardedID, error) {
	res, err := e.applyOne(AddOp(req))
	if err != nil {
		return ShardedID{}, err
	}
	return res.ID, res.Err
}

// Remove tears down the request with the given id.
func (e *ShardedEngine) Remove(id ShardedID) error {
	res, err := e.applyOne(RemoveOp(id))
	if err != nil {
		return err
	}
	return res.Err
}

// Reroute re-routes the request with the given id against the current
// loads of its shard; it reports whether the path changed.
func (e *ShardedEngine) Reroute(id ShardedID) (bool, error) {
	res, err := e.applyOne(RerouteOp(id))
	if err != nil {
		return false, err
	}
	return res.Changed, res.Err
}

// applyOne runs one op through the batch machinery (so two-level
// reconciliation happens exactly as in a batch of one).
func (e *ShardedEngine) applyOne(op BatchOp) (BatchResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return BatchResult{}, ErrEngineClosed
	}
	ops := [1]BatchOp{op}
	results := [1]BatchResult{}
	e.applyLocked(ops[:], results[:])
	return results[0], nil
}

// ── Worker pool ────────────────────────────────────────────────────────

// workerPool is a fixed set of goroutines started once per engine and
// fed closures over a channel buffered to the pool size — fanOut never
// submits more than n in-flight tasks, so submit never blocks (the
// serialBatchThreshold calibration assumes this). It replaces the
// per-batch goroutine spawn, so tiny batches stop paying startup cost.
type workerPool struct {
	tasks chan func()
	done  sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{tasks: make(chan func(), n)}
	p.done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.done.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

func (p *workerPool) submit(f func()) { p.tasks <- f }

func (p *workerPool) close() {
	close(p.tasks)
	p.done.Wait()
}

// fanOut runs f(0..n-1), each index exactly once, on up to Workers()
// goroutines: the caller is always one of them (a single-shard batch
// never pays a channel handoff) and the persistent pool supplies the
// rest. Indices are claimed through a shared atomic cursor, so workers
// load-balance uneven shards. serial forces the inline path (tiny
// batches, see serialBatchThreshold).
func (e *ShardedEngine) fanOut(serial bool, n int, f func(int)) {
	w := e.workers
	if w > n {
		w = n
	}
	if serial || w <= 1 || e.pool == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int32
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 0; k < w-1; k++ {
		e.pool.submit(func() {
			defer wg.Done()
			drain()
		})
	}
	drain()
	wg.Wait()
}

// ── Queries and aggregates ─────────────────────────────────────────────

// globalPath translates a shard-local dipath back to the engine's
// topology. The translation is structure-preserving by construction, so
// the arcs chain without revalidation (dipath.FromArcsTrusted).
//
//wavedag:lockfree
//wavedag:allow-alloc (builds the translated path; runs against immutable tables)
func (sh *engineShard) globalPath(e *ShardedEngine, p *dipath.Path) (*dipath.Path, error) {
	if p.NumArcs() == 0 {
		return dipath.FromVertices(e.net.Topology, sh.toGlobalVertex[p.First()])
	}
	arcs := make([]digraph.ArcID, p.NumArcs())
	for i, a := range p.Arcs() {
		arcs[i] = sh.toGlobalArc[a]
	}
	return dipath.FromArcsTrusted(e.net.Topology, arcs...), nil
}

// compLocalPath translates a shard-local dipath to its component's
// view (identity for overlay lanes, which run on the view itself).
func (sh *engineShard) compLocalPath(p *dipath.Path) (*dipath.Path, error) {
	if sh.kind != shardRegion {
		return p, nil
	}
	if p.NumArcs() == 0 {
		return dipath.FromVertices(sh.comp.view.G, sh.toCompVertex[p.First()])
	}
	arcs := make([]digraph.ArcID, p.NumArcs())
	for i, a := range p.Arcs() {
		arcs[i] = sh.toCompArc[a]
	}
	return dipath.FromArcsTrusted(sh.comp.view.G, arcs...), nil
}

// regionLambdaMax returns the maximum λ across a component's region
// lanes (0 without region lanes) — the base of the overlay lane's
// wavelength band.
func (c *engineComponent) regionLambdaMax() int {
	n := 0
	for _, rs := range c.regionShards {
		n = max(n, rs.lambda())
	}
	return n
}

// verify checks one component's live assignment: it materialises
// every lane's paths in component identifiers with their effective
// (banded) wavelengths and checks the combined assignment against the
// conflict invariant — the strongest form, since it would catch a band
// collision between lanes, not just per-lane improprieties. Without
// region lanes this is exactly the overlay session's own Verify.
func (c *engineComponent) verify() error {
	offset := c.regionLambdaMax()
	var fam dipath.Family
	var colors []int
	numColors := 0
	collect := func(sh *engineShard, off int) error {
		slots, f := sh.sess.snapshot()
		cs := sh.sess.coloring.Colors(slots)
		for i, p := range f {
			cp, err := sh.compLocalPath(p)
			if err != nil {
				return err
			}
			fam = append(fam, cp)
			colors = append(colors, cs[i]+off)
			if cs[i]+off >= numColors {
				numColors = cs[i] + off + 1
			}
		}
		return nil
	}
	for _, rs := range c.regionShards {
		if err := collect(rs, 0); err != nil {
			return err
		}
	}
	if err := collect(c.overlay, offset); err != nil {
		return err
	}
	res := &core.Result{Colors: colors, NumColors: numColors, Pi: c.overlay.sess.tracker.Pi()}
	return core.Verify(c.view.G, fam, res)
}

// Verify checks every component's live assignment against the conflict
// invariant; components are checked concurrently and the first failure
// (in component order, deterministically) is reported.
func (e *ShardedEngine) Verify() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	errs := make([]error, len(e.comps))
	e.fanOut(false, len(e.comps), func(i int) {
		if e.comps[i].dead {
			return
		}
		errs[i] = e.comps[i].verify()
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("wdm: component %d: %w", i, err)
		}
	}
	return nil
}

// Provisioning materialises the engine's current state: shards
// materialise concurrently, then merge in component order — a component
// lists its region lanes in index order, then its overlay lane, each in
// slot order — so the output is deterministic regardless of worker
// scheduling. Paths are translated to the engine topology
// through the trusted (no-revalidation) constructor; overlay
// wavelengths are lifted into their component's effective band, and
// ADMs are deduplicated globally (cut vertices can terminate lightpaths
// from several lanes).
func (e *ShardedEngine) Provisioning() (*Provisioning, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.shards) == 0 {
		return &Provisioning{Feasible: true}, nil
	}
	provs := make([]*Provisioning, len(e.shards))
	errs := make([]error, len(e.shards))
	e.fanOut(false, len(e.shards), func(i int) {
		provs[i], errs[i] = e.shards[i].sess.Provisioning()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("wdm: shard %d: %w", i, err)
		}
	}
	total := 0
	for _, p := range provs {
		total += len(p.Paths)
	}
	merged := &Provisioning{
		Paths:       make(dipath.Family, 0, total),
		Wavelengths: make([]int, 0, total),
		Method:      provs[0].Method,
	}
	appendShard := func(sh *engineShard, offset int) error {
		prov := provs[sh.idx]
		for j, p := range prov.Paths {
			gp, err := sh.globalPath(e, p)
			if err != nil {
				return fmt.Errorf("wdm: shard %d: %w", sh.idx, err)
			}
			merged.Paths = append(merged.Paths, gp)
			merged.Wavelengths = append(merged.Wavelengths, prov.Wavelengths[j]+offset)
		}
		if prov.Pi > merged.Pi {
			merged.Pi = prov.Pi
		}
		return nil
	}
	for _, c := range e.comps {
		if c.dead {
			continue
		}
		var compMethod core.Method
		offset := 0
		for _, rs := range c.regionShards {
			if err := appendShard(rs, 0); err != nil {
				return nil, err
			}
			if p := provs[rs.idx]; p.NumLambda > offset {
				offset = p.NumLambda
				compMethod = p.Method
			}
		}
		if err := appendShard(c.overlay, offset); err != nil {
			return nil, err
		}
		if op := provs[c.overlay.idx]; op.NumLambda > 0 {
			compMethod = op.Method
		}
		compLambda := offset + provs[c.overlay.idx].NumLambda
		if compLambda > merged.NumLambda {
			merged.NumLambda = compLambda
			merged.Method = compMethod // the binding component names the method
		}
	}
	return e.net.provisioning(merged.Paths, merged.Wavelengths, merged.NumLambda, merged.Pi, merged.Method), nil
}

// ShardRecolorStats reports a shard's incremental-colorer recolor
// counters — warm (drifts absorbed by the class-seeded repack) and cold
// (from-scratch pipeline runs); ok is false for an index outside the
// flattened layout (overlay and region lanes; see NumShards). The
// counters are read under the engine lock, so the call is safe
// concurrently with batches (handing out the live colorer itself would
// not be).
func (e *ShardedEngine) ShardRecolorStats(shard int) (warm, cold int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if shard < 0 || shard >= len(e.shards) {
		return 0, 0, false
	}
	ic := e.shards[shard].sess.coloring
	return ic.WarmRecolors(), ic.FullRecolors(), true
}
