// Package wavedag is a Go library reproducing Bermond & Cosnard,
// "Minimum number of wavelengths equals load in a DAG without internal
// cycle" (IPDPS 2007), together with the surrounding routing-and-
// wavelength-assignment (RWA) machinery the paper's results live in.
//
// # Model
//
// A network is a DAG G; a request is satisfied by a dipath. The load
// π(G,P) of a dipath family P is the maximum number of dipaths through a
// single arc; the wavelength number w(G,P) is the minimum number of
// colors such that arc-sharing dipaths get different colors. Always
// π ≤ w.
//
// # Results implemented
//
//   - Theorem 1: if G has no internal cycle (an undirected cycle avoiding
//     all sources and sinks), then w = π for every family, and
//     ColorNoInternalCycle computes such a coloring in polynomial time.
//   - Theorem 2 / Main Theorem: if G has an internal cycle some family
//     needs w = 3 > 2 = π (gadget available as InternalCycleGadget), so
//     the absence of internal cycles exactly characterises w ≡ π.
//   - Property 3/Corollary 5 (UPP-DAGs — at most one dipath between any
//     two vertices): conflicts have the Helly property, π equals the
//     conflict-graph clique number, and no K_{2,3} occurs.
//   - Theorem 6: on an UPP-DAG with exactly one internal cycle,
//     w ≤ ⌈4π/3⌉, computed by ColorOneInternalCycleUPP.
//   - Theorem 7: the bound is tight (Havet instance, HavetInstance).
//
// # Quick start
//
//	g := wavedag.NewGraph(4)
//	g.MustAddArc(0, 1)
//	g.MustAddArc(1, 2)
//	g.MustAddArc(2, 3)
//	fam := wavedag.Family{
//		wavedag.MustPath(g, 0, 1, 2),
//		wavedag.MustPath(g, 1, 2, 3),
//	}
//	res, method, _ := wavedag.Color(g, fam)
//	fmt.Println(res.NumColors, method) // 2 theorem1
//
// # Performance
//
// The hot paths are engineered for batch workloads:
//
//   - The exact solvers (ChromaticNumber, CliqueNumber, OptimalColoring)
//     and the conflict graph's DSATUR heuristic decompose it into
//     connected components first — χ and ω of a disjoint union are the
//     maxima over components — so the exponential searches run on small
//     subproblems, dispatched to a runtime.NumCPU()-bounded worker pool
//     when components are large enough to pay for it. Small components
//     are canonicalized (exact adjacency bitmap) and solver results
//     memoized, so disjoint unions of identical instances — replicated
//     workloads, batched multi-tenant requests — pay for one solve.
//   - Color's DSATUR fallback and the engine's cold recolor build no
//     conflict graph: they read degrees and saturation off the family's
//     arc incidence, in the caller's goroutine, and give the conflict
//     graph's DSATUR colors exactly. So an engine's DSATUR recolors
//     start no goroutine beyond the WithShardWorkers bound.
//   - Inner loops are allocation-free: candidate sets and palettes are
//     bitsets (Tomita-style MaxClique with word-parallel coloring
//     bounds), the exact-coloring search maintains vertex saturation
//     incrementally instead of recomputing it per node (its workspaces
//     are recycled through a sync.Pool across components), and
//     neighbour iteration uses ConflictGraph.ForEachNeighbor rather
//     than slice-returning Neighbors.
//   - Batch routing goes through NewRouter, which reuses epoch-stamped
//     BFS/Dijkstra state across requests instead of allocating or
//     clearing per request, scans a compressed-sparse-row copy of the
//     out-adjacency, and prunes each min-load search to the
//     destination's ancestors, cached as one bitset per destination in
//     one slab: a settled vertex ANDs its out-neighbours, kept as a
//     sparse bitset of a few words, with that set, so the search looks
//     only at arcs into it. A set's reverse DFS ORs in the sets already
//     built instead of walking through them, and a batch (or a one-shot
//     Provision) builds its destinations' sets up front in topological
//     order, so they cost about one sweep of the in-arcs, with the
//     same ⌈n/64⌉ words per distinct destination. A batch's routes
//     (and a one-shot Provision's) are carved from one arena instead
//     of three allocations per path; incremental load bookkeeping goes
//     through NewLoadTracker.
//
// # Sessions: the dynamic provisioning engine
//
// One-shot Provision pays the full route→conflict→color pipeline per
// call. Churning workloads — request arrivals and teardowns at steady
// state — instead open a Session (Network.NewSession), which maintains
// every layer incrementally:
//
//   - routing state (Router / UPP tables) persists across requests;
//   - arc loads live in a LoadTracker (O(path) per update, O(1) π);
//   - the conflict graph is mutable: inserting a dipath touches only
//     the paths sharing its arcs (arc-indexed overlap detection), not
//     all n² pairs;
//   - wavelengths are maintained online: a new path is first-fit
//     colored against its neighbourhood, a removal runs a bounded local
//     repair, and only when the count drifts past a configurable slack
//     above the incrementally maintained lower bound does the engine
//     fall back to a full from-scratch recolor (the strongest
//     applicable theorem).
//
// Session.Add/Remove/Reroute are the operations; Session.Verify checks
// the live assignment against the conflict invariant, and
// Session.Provisioning materialises a Provisioning snapshot. Routing
// is a pluggable strategy value (WithRoutingStrategy); each
// RoutingPolicy constant is the value of a built-in strategy. Coloring
// is not pluggable: every session maintains its wavelengths with one
// IncrementalColorer. Provision is the flat one-shot pipeline (route,
// validate and account each request, then color once with the strongest
// applicable theorem); it equals, field for field, a session filled
// with the same requests whose live family is then colored once from
// scratch. The randomized churn
// equivalence tests pin the session to the one-shot pipeline:
// Verify-clean after every operation, exact π, and λ within the slack
// of the from-scratch answer.
//
// # Sharded engine: concurrency model
//
// A Session is single-threaded. ShardedEngine
// (Network.NewShardedEngine) is the concurrent engine: the topology is
// partitioned into its weakly connected components (one O(V+A) pass,
// compact per-component views — no shard ever copies the full graph)
// and every component gets an overlay lane, its own Session over the
// component view; giant components additionally get region lanes (next
// section). Dipaths cannot cross components,
// so shards share no mutable state: each owns its router, load
// tracker, conflict graph and colorer outright, and the per-event hot
// path takes no locks or atomics.
//
// Ownership and safety rules:
//
//   - All ShardedEngine methods are safe to call from any goroutine:
//     one engine mutex serialises API entry, so batches never
//     interleave. Concurrency happens inside ApplyBatch, which groups
//     the batch by owning shard and fans the shards out to up to
//     GOMAXPROCS workers (WithShardWorkers overrides) from the
//     engine's persistent pool; batches of at most 16 events run
//     inline, where the handoff would cost more than it distributes.
//   - A shard is touched by exactly one worker per batch; events on the
//     same shard apply in input order, events on different shards
//     commute. Merged reports (Provisioning, Verify) assemble in
//     component/shard index order, so results are deterministic
//     regardless of worker scheduling.
//   - The per-shard Sessions must not be driven directly; the engine
//     owns them. Wavelength reports are offset-free across components:
//     components share no arcs, so they color independently from 0 and
//     the global λ is the max over components (each reports its region
//     maximum, 0 without region lanes, plus its overlay band), and the
//     merged assignment is proper as-is.
//
// # Two-level sharding: giant components
//
// Component sharding alone serialises a topology dominated by one giant
// weakly connected component. ShardedEngine therefore decomposes
// components at or above WithSubshardThreshold vertices (default 64)
// into arc-disjoint regions — the biconnected blocks of the underlying
// undirected graph, computed by Graph.PartitionRegions — and runs one
// region lane (a sub-session) per region beside the component's
// serialized overlay lane. A component below the threshold, or one
// that is a single block, has no region lanes: its overlay lane carries
// all its traffic, and the reconciliation below is empty for it. The soundness argument has two halves:
//
//   - Confinement: blocks meet only at cut vertices, so every simple
//     path between two co-region vertices stays inside the region, and
//     any arc joining two co-region vertices belongs to the region.
//     Region-confined requests therefore route on the compact region
//     view over exactly the global search space, and region views
//     preserve relative vertex/arc order, so BFS and min-load Dijkstra
//     return exactly the routes a whole-component session would.
//   - Arc-disjointness: regions partition the arcs, so paths confined
//     to different regions never conflict and region wavelength counts
//     aggregate as a max, exactly like components.
//
// Requests whose endpoints share no region must cross regions; they
// escalate to the component's overlay lane (a session over the whole
// component view), which is serialized per component and reconciled at
// batch boundaries: region path deltas fold into the overlay tracker
// (keeping the component's combined load view — and π — exact) and
// overlay path loads scatter back into the region trackers. Overlay
// wavelengths are reported in a band above the region maximum, so the
// merged assignment stays proper even though overlay paths share arcs
// with region paths; a component's λ is the region maximum plus its
// overlay band.
//
// ApplyBatch runs on a persistent worker pool started at engine
// construction — batches pay no goroutine-spawn cost, however small —
// and Close stops the pool: in-flight batches finish first, later
// mutations fail with ErrEngineClosed, and queries keep answering —
// lock-free — from the final published snapshot (next section). The
// sharded dispatcher rejects cross-component requests in O(1) from the
// static component labels, and the Router rejects a source outside the
// destination's ancestor set in O(1) (the set is cached per
// destination, and built from the sets already cached), so neither
// repeats exhausted searches. ApplyBatchInto is
// ApplyBatch with a caller-pooled results buffer — steady-state batch
// loops recycle one slice instead of allocating per call.
//
// # Lock-free query plane
//
// Reads never block writes. At every mutation boundary — each
// ApplyBatch (and single-op Add/Remove), FailArc, RestoreArc, Revive
// and Close — the engine publishes an immutable EngineSnapshot through
// one atomic pointer, rebuilt incrementally: only the shards the event
// touched re-materialise their lookup tables and re-scatter their
// loads; untouched shards share their backing arrays with the previous
// snapshot. The read-only API (Stats, Len, Pi, NumLambda,
// OverlayLambda, DarkLive, NumFailedArcs, ArcLoads/ArcLoadsInto, Path,
// Wavelength, IsDark) answers from the current snapshot without
// touching the engine mutex: scalar queries are one atomic load plus a
// field read, zero allocations; ArcLoadsInto copies into a
// caller-reused buffer, also allocation-free; ArcLoads allocates only
// its returned copy.
//
// The staleness contract: a snapshot is an exact, internally
// consistent image of the engine at a mutation boundary, at most one
// event behind the live state — and never behind for the caller that
// applied the event, because publication happens before the mutation
// returns. Queries therefore always agree with each other when asked
// of one pinned snapshot (ShardedEngine.Snapshot, released with
// EngineSnapshot.Release; retired buffers recycle through pools only
// after the last pin drops). Every engine lane colors incrementally,
// so λ is read at every publication in O(1) per dirty lane.
// Provisioning and Verify, which materialise merged state, always run
// under the mutex.
//
// # Admission control & budgets
//
// An unbudgeted engine always accepts and lets λ float; a budgeted one
// is capacity-constrained with measurable blocking — the regime the
// paper's concluding-remarks problem (satisfy a maximum subfamily under
// a wavelength budget) lives in, taken online. WithWavelengthBudget(w)
// turns a Session into an admission-controlled engine: every Add/TryAdd
// decides accept-or-reject before any state mutates.
//
//   - On internal-cycle-free topologies the decision is the Theorem-1
//     precheck: "fits in w wavelengths" is exactly "load ≤ w" there, so
//     admission is an O(path) read of the live load tracker — measured
//     at a fraction of the cost of a provisioning attempt (see the
//     reject-precheck/reject-rollback pair of internal/wdm's
//     BenchmarkAdmissionChurn) — and it is exact: a
//     request is rejected only when its route genuinely cannot fit.
//     After an accepted add the engine restores λ ≤ w whenever the
//     incremental palette drifted (Theorem 1 guarantees the recolor
//     lands at π ≤ w).
//   - On general DAGs (internal cycles present) the engine falls back
//     to a color-then-rollback probe through the coloring layer: the
//     request is admitted only if it takes a wavelength below w without
//     disturbing the live assignment (one palette repack allowed), and
//     a rejection rolls the insertion back exactly.
//
// What happens to over-budget requests is a pluggable AdmissionStrategy
// value, exactly like routing: AdmissionReject drops them (the default
// — blocking-probability experiments measure this),
// AdmissionRetryAltRoute re-asks a min-load router for a detour around
// the saturated arcs and recovers the request when one fits, and
// AdmissionDegrade accepts them as best-effort traffic reported
// separately (suspending the λ ≤ w guarantee while any is live).
// TryAdd returns the Admission decision without an error detour; Add
// wraps rejections in ErrBudgetExceeded; AdmissionStats counts offers,
// accepts, rejects, retries and best-effort admissions.
//
// ShardedEngine takes the budget via WithEngineWavelengthBudget: λ
// aggregates as a max over components and over the arc-disjoint regions
// inside one, so a global budget is exactly a per-shard budget and
// admission stays on the lock-free per-shard hot path. Components with
// region lanes band the budget — region lanes admit against w minus the
// overlay slice of max(1, w/4), the overlay lane against its slice — so
// the banded aggregation can never exceed w; a component without region
// lanes admits against w on its overlay lane.
// Per-lane admission outcomes and traffic shares aggregate into
// EngineStats (LaneStats Plain for the lanes of components without
// region lanes, Region, and Overlay for the overlay lanes of components
// with them), making overlay pressure observable without a profiler.
//
// The static max-request solvers (MaxRequestsGreedy/Exact/OnPath) have
// an online counterpart, MaxRequestsOnline: dipaths offered one at a
// time against a budgeted session, each irrevocably accepted or
// rejected — always feasible at w, never beating the exact offline
// selection, and carrying a full wavelength assignment rather than just
// a selection.
//
// # Survivability & failures
//
// The engines survive live fiber cuts. Graph.FailArc marks an arc
// failed in place — identifiers, endpoints and adjacency positions are
// all preserved, so live loads, colorings and dipaths stay index-valid
// — and every failure-aware traversal (routing, reachability) simply
// skips failed arcs; Graph.RestoreArc heals the cut. Session.FailArc is
// the dynamic entry point: it locates the affected live paths through
// the arc-indexed conflict incidence (no family scan), then runs a
// bounded restoration storm — all affected
// paths are torn down first (the cut kills them simultaneously), then
// rerouted shortest-first, each allowed one min-load detour charged
// against a per-storm retry budget of twice the affected count. Paths the storm cannot restore are parked as
// dark entries: retained under their SessionID, flagged, excluded from
// λ/π and the live view, never silently dropped. Session.RestoreArc
// heals an arc and runs a re-admission sweep that revives dark entries
// oldest-first under the wavelength budget, and Session.Revive (or
// ShardedEngine.Revive, which also sweeps across the two-level lanes)
// runs the same sweep on demand. A dark entry whose last sweep found no
// live dipath waits, without a search, until its session's topology
// changes (a cut, a repair or an added arc). Removals and repairs also
// re-promote best-effort ("degrade"-admitted) traffic to budgeted
// service once λ fits the budget again, restoring the λ ≤ w guarantee.
//
// ShardedEngine.FailArc/RestoreArc dispatch cuts to the owning shard
// (region lane first, then the overlay lane, with the two-level
// reconciliation folding storm-driven path deltas between them). A
// request a cut made unroutable is dispatched to its lane like any
// other, and the lane's search answers ErrNoRoute. The engine counts
// cuts, affected/restored/parked/revived paths and storm latency into
// EngineStats/LaneStats. FailureStats and StormReport carry the same
// counters at session and per-storm granularity; Session.DarkIDs /
// ShardedEngine.DarkLive expose the parked population. For measurement,
// NewFaultSchedule draws a deterministic MTBF/MTTR alternating-renewal
// cut/repair event stream ([]FaultEvent) over a topology's arcs, the
// workload BenchmarkSurviveChurn replays against churn.
//
// # Serving & overload
//
// The library becomes a process through the serving front-end: a
// Server (NewServer) wraps a ShardedEngine's write path behind a
// bounded submission queue and a write coalescer — one dispatcher
// applies everything queued, up to WithMaxBatch, as one ApplyBatch
// whenever it is free; requests arriving meanwhile form the next batch
// (the group-commit policy). An idle server applies a lone request at
// once, a busy one fills its batches, and the engine fan-out is
// amortised without asking callers to assemble batches themselves.
// Reads never queue: the lock-free query plane already answers from any
// goroutine.
//
// The serving contract is exactly-one-definitive-response: every
// submission terminates in precisely one of
//
//   - an ack, carrying the engine result (assigned id, reroute
//     outcome, storm report);
//   - a terminal error (no route, unknown session, budget exhaustion
//     after retries, ErrServerClosed, a panic isolated to that one
//     request);
//   - a shed verdict: under overload — queue full or past WithShedDepth
//     — the server refuses new work immediately with ErrShed and a
//     RetryAfter hint derived from the measured per-op service time,
//     keeping accepted-write latency flat instead of letting the queue
//     collapse into seconds of wait (WithBlockingBackpressure trades
//     shedding back for blocking, the measured comparison axis);
//   - a deadline expiry: a context deadline travels with the request
//     and a request that expires while queued is answered with
//     ErrDeadlineExceeded before any engine work is spent on it.
//
// Transient failures retry with jittered exponential backoff, bounded
// and deadline-aware, on either side of the queue: WithServerRetry
// re-coalesces ErrBudgetExceeded rejections inside the server;
// ServeClient.Do resubmits shed verdicts from the caller's side,
// honouring RetryAfter. Permanent errors are never retried
// (IsTransient is the classifier). Shutdown drains gracefully: intake
// stops, the queue and retry backlog flush so every accepted request
// is answered, then the engine closes — queries keep serving from the
// final snapshot. The open-loop Poisson driver (NewPoissonArrivals,
// with a configurable rate ramp) exists to push this machinery past
// saturation honestly, and `go run ./cmd/served` is the HTTP/JSON
// binary over the same front-end. The chaos soak (concurrent writers +
// fault storms + budget pressure) pins the exactly-once contract under
// -race.
//
// The go-test benchmarks time the E1–E12 experiment pipelines, the
// ablations and the churn, survivability, snapshot-read and serving
// workloads; `make benchsmoke` keeps every one of them compiling and
// running. wavebench/ is the end-to-end benchmark (serve-poisson,
// churn-giant, plan-theorem1), and `go run ./cmd/repro` checks every
// experiment against the paper's predicted value.
//
// # Static analysis & invariants
//
// The concurrency and admission contracts documented above are
// mechanically enforced by wavedaglint (cmd/wavedaglint, built on
// internal/lint): a stdlib-only analyzer suite that loads the module
// through `go list -export` and the gc export-data importer — no
// third-party analysis framework. `make lint` runs it over the whole
// repository and fails on any finding. Four analyzers cover the four
// contracts:
//
//   - lockfree: functions annotated //wavedag:lockfree (the snapshot
//     query plane) must not acquire sync primitives, block on
//     channels, allocate, or call in-module code that is not itself
//     annotated; //wavedag:allow-alloc and line-scoped
//     //wavedag:allow-blocking are the audited escape hatches.
//   - publish: a method that mutates engine state under the engine
//     mutex must reach publishLocked() on every return path — early
//     error returns included — so lock-free readers never trail the
//     mutex-guarded truth; //wavedag:readonly marks logically
//     read-only cache refreshes.
//   - poolpair: sync.Pool Get/Put must pair within a function unless
//     the escape is documented with //wavedag:pool-handoff, resources
//     from //wavedag:acquire entry points must be released, and refs
//     counters move only inside //wavedag:refcount lifecycle code.
//   - errwrap: the exported sentinels (ErrShed, ErrBudgetExceeded,
//     ErrEngineClosed, ...) must be wrapped with %w and tested with
//     errors.Is, never compared with == or matched in a switch.
//
// The analyzers are themselves pinned by golden-file tests over a
// fixture module of seeded violations (internal/lint/testdata), and
// the repository must pass its own suite (TestSelfRunClean). Alongside
// the analyzers, fuzz targets pin the two load-bearing invariants the
// linters cannot see: FuzzTheorem1Precheck replays identical op
// streams through the Theorem-1 admission precheck and the
// color-then-rollback probe on random internal-cycle-free topologies,
// and FuzzPartitionRegions checks the arc-partition and cut-vertex
// contract of the region decomposition on random DAGs.
//
// # Live capacity adds
//
// The region partition and the budget band split are fixed at
// construction, from the graph alone. The topology itself can grow
// under live traffic: ShardedEngine.AddArc adds an arc at a batch
// boundary, under the engine mutex, with a fresh snapshot published
// afterwards so the lock-free query plane never observes a half-grown
// layout.
//
//   - An arc added inside one region joins that region's lane.
//   - An arc bridging two regions of one component becomes
//     overlay-owned and turns the component escalating: cross-region
//     routes may now exist, so region lanes hand their failed
//     region-confined adds to the overlay lane instead of rejecting.
//   - An arc joining two components merges them into one without
//     region lanes, relocating every lightpath of both into a fresh
//     overlay lane. The old lanes retire behind immutable forward
//     maps, so ShardedIDs issued before keep resolving.
//
// The engine clones the topology on the first add: the caller's
// Network and previously pinned snapshots are never mutated.
// EngineStats counts the adds. An add that a lane's routing refuses
// (UPP routing when the arc breaks unique paths) leaves the arc in the
// graph, failed for good: RestoreArc refuses it. The op-stream fuzzer
// of internal/wdm pins every shape: after any mix of churn, cuts and
// adds the engine's routes, π and loads must equal a from-scratch
// model's, its merged coloring must be proper, and λ must stay within
// the budget.
//
// The sub-packages under internal/ hold the implementation; this package
// re-exports the stable API.
package wavedag

import (
	"time"

	"wavedag/internal/conflict"
	"wavedag/internal/core"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/groom"
	"wavedag/internal/load"
	"wavedag/internal/route"
	"wavedag/internal/serve"
	"wavedag/internal/upp"
	"wavedag/internal/wdm"
)

// Re-exported core types.
type (
	// Graph is a directed multigraph with dense vertex and arc ids.
	Graph = digraph.Digraph
	// Vertex identifies a vertex of a Graph.
	Vertex = digraph.Vertex
	// ArcID identifies an arc of a Graph.
	ArcID = digraph.ArcID
	// Path is a dipath over a Graph.
	Path = dipath.Path
	// Family is an ordered collection of dipaths.
	Family = dipath.Family
	// Result is a wavelength assignment (colors, count, load).
	Result = core.Result
	// Method names the algorithm that produced a Result.
	Method = core.Method
	// ConflictGraph is the undirected conflict graph of a family.
	ConflictGraph = conflict.Graph
	// Network is a WDM network (topology + wavelength capacity).
	Network = wdm.Network
	// Provisioning is a routed and wavelength-assigned request set.
	Provisioning = wdm.Provisioning
	// Request is a source/destination connection demand.
	Request = route.Request
	// Router holds preallocated, reusable routing state for batches of
	// requests over one graph (see NewRouter).
	Router = route.Router
	// LoadTracker maintains arc loads incrementally under path
	// insertion/removal (see NewLoadTracker).
	LoadTracker = load.Tracker
	// Session is a dynamic provisioning run: Add/Remove/Reroute maintain
	// routing, load, conflict and wavelength state incrementally (open
	// one with Network.NewSession).
	Session = wdm.Session
	// SessionID identifies a live request inside a Session.
	SessionID = wdm.SessionID
	// SessionOption configures Network.NewSession.
	SessionOption = wdm.SessionOption
	// RoutingPolicy selects a built-in routing strategy for Provision
	// and WithRoutingPolicy.
	RoutingPolicy = wdm.RoutingPolicy
	// RoutingStrategy is the pluggable request→dipath layer of sessions;
	// pass an implementation to WithRoutingStrategy.
	RoutingStrategy = wdm.RoutingStrategy
	// DynamicConflictGraph is the mutable conflict layer of the dynamic
	// engine: live dipaths in recycled slots, indexed by the arcs they
	// traverse (see NewDynamicConflictGraph).
	DynamicConflictGraph = conflict.Dynamic
	// IncrementalColorer maintains a wavelength assignment online over a
	// mutable conflict graph (see NewIncrementalColorer).
	IncrementalColorer = core.Incremental
	// ShardedEngine is the concurrent provisioning engine: one Session
	// per weakly connected component, batches fanned out across shards
	// (open one with Network.NewShardedEngine; see the package docs for
	// the concurrency model).
	ShardedEngine = wdm.ShardedEngine
	// ShardedID identifies a live request inside a ShardedEngine.
	ShardedID = wdm.ShardedID
	// ShardedOption configures Network.NewShardedEngine.
	ShardedOption = wdm.ShardedOption
	// BatchOp is one churn event of ShardedEngine.ApplyBatch (build with
	// AddOp, RemoveOp, RerouteOp).
	BatchOp = wdm.BatchOp
	// BatchResult is the per-op outcome of ShardedEngine.ApplyBatch.
	BatchResult = wdm.BatchResult
	// ComponentView is a compact weakly-connected-component view of a
	// Graph (see Graph.PartitionComponents).
	ComponentView = digraph.ComponentView
	// Regions is the arc-disjoint region decomposition of a Graph — the
	// biconnected blocks of the underlying undirected graph, the
	// substrate of two-level sharding (see Graph.PartitionRegions).
	Regions = digraph.Regions
	// RegionMember is one (region, local id) membership of a vertex in
	// a Regions decomposition.
	RegionMember = digraph.RegionMember
	// EngineStats summarises a ShardedEngine's layout, per-lane traffic
	// shares and admission outcomes (see ShardedEngine.Stats).
	EngineStats = wdm.EngineStats
	// LaneStats aggregates one engine lane flavour's traffic and
	// admission outcomes.
	LaneStats = wdm.LaneStats
	// EngineSnapshot is one atomically-published immutable image of a
	// ShardedEngine at a mutation boundary — the substrate of the
	// lock-free query plane (pin one with ShardedEngine.Snapshot, see
	// the "Lock-free query plane" section).
	EngineSnapshot = wdm.EngineSnapshot
	// Admission is the outcome of one budgeted admission decision (see
	// Session.TryAdd).
	Admission = wdm.Admission
	// AdmissionStats counts a session's cumulative admission outcomes.
	AdmissionStats = wdm.AdmissionStats
	// AdmissionStrategy decides the fate of over-budget requests; pass
	// an implementation to WithAdmissionStrategy.
	AdmissionStrategy = wdm.AdmissionStrategy
	// AdmissionState is per-session admission state built by an
	// AdmissionStrategy.
	AdmissionState = wdm.AdmissionState
	// AdmissionContext is the controlled session view an AdmissionState
	// decides through.
	AdmissionContext = wdm.AdmissionContext
	// OnlineMaxRequests is the online max-request selection: dipaths
	// offered one at a time against a wavelength budget (see
	// NewOnlineMaxRequests).
	OnlineMaxRequests = groom.Online
	// FailureStats counts a session's cumulative failure outcomes: cuts,
	// affected/restored/parked/revived paths, best-effort promotions (see
	// Session.FailureStats and the "Survivability & failures" section).
	FailureStats = wdm.FailureStats
	// StormReport is the outcome of one restoration storm (returned by
	// Session.FailArc / ShardedEngine.FailArc).
	StormReport = wdm.StormReport
	// FaultEvent is one cut or repair of a fault schedule (see
	// NewFaultSchedule).
	FaultEvent = gen.FaultEvent
	// Server is the robust serving front-end over a ShardedEngine:
	// write coalescing, deadlines, load shedding, retry and graceful
	// drain (open one with NewServer; see the "Serving & overload"
	// section).
	Server = serve.Server
	// ServeOption configures NewServer.
	ServeOption = serve.Option
	// ServeRequest is one write submitted to a Server (build with
	// AddRequest, RemoveRequest, RerouteRequest, FailArcRequest,
	// RestoreArcRequest).
	ServeRequest = serve.Request
	// ServeResponse is the definitive outcome of one submitted request.
	ServeResponse = serve.Response
	// ServeClient wraps a Server with client-side retry/backoff for
	// transient outcomes (see NewServeClient).
	ServeClient = serve.Client
	// RetryPolicy bounds a ServeClient's retry loop.
	RetryPolicy = serve.RetryPolicy
	// ServerStats counts a Server's cumulative outcomes: every
	// submission lands in exactly one of acked/failed/shed/expired.
	ServerStats = serve.ServerStats
	// PoissonArrivals is an open-loop (optionally rate-ramped) Poisson
	// arrival stream for overload experiments (see NewPoissonArrivals).
	PoissonArrivals = gen.PoissonArrivals
)

// ErrEngineClosed is returned by mutating ShardedEngine methods after
// Close; queries keep answering, lock-free, from the final published
// snapshot.
var ErrEngineClosed = wdm.ErrEngineClosed

// ErrBudgetExceeded is the sentinel wrapped by Add (and batch results)
// when budget admission rejects a request; TryAdd reports the same
// outcome as a non-error Admission decision.
var ErrBudgetExceeded = wdm.ErrBudgetExceeded

// ErrUnknownSession is the sentinel wrapped by Session and ShardedEngine
// operations handed a SessionID that is not live — never issued, already
// removed, or recycled to a later generation. The failing call mutates
// nothing.
var ErrUnknownSession = wdm.ErrUnknownSession

// ErrShed is the load-shedding verdict of a saturated Server: the
// request was refused before queueing, with a RetryAfter hint in the
// response. Shed outcomes are transient — ServeClient.Do retries them.
var ErrShed = serve.ErrShed

// ErrServerClosed answers submissions after Server.Shutdown began.
var ErrServerClosed = serve.ErrServerClosed

// IsTransient reports whether a serving error is worth retrying after
// backoff (shed verdicts, budget rejections); permanent errors — no
// route, unknown session, expired deadline, closed server — are not.
func IsTransient(err error) bool { return serve.IsTransient(err) }

// The built-in admission strategies, for WithAdmissionStrategy.
var (
	AdmissionReject        = wdm.AdmissionReject
	AdmissionRetryAltRoute = wdm.AdmissionRetryAltRoute
	AdmissionDegrade       = wdm.AdmissionDegrade
)

// DefaultSubshardThreshold is the component size (in vertices) at which
// NewShardedEngine switches a component to the two-level region layout.
const DefaultSubshardThreshold = wdm.DefaultSubshardThreshold

// Routing policies accepted by Network.Provision and WithRoutingPolicy.
const (
	RouteShortest = wdm.RouteShortest
	RouteMinLoad  = wdm.RouteMinLoad
	RouteUPP      = wdm.RouteUPP
)

// Session options, re-exported from the wdm layer.

// WithRoutingStrategy selects a session's routing strategy.
func WithRoutingStrategy(s RoutingStrategy) SessionOption { return wdm.WithRoutingStrategy(s) }

// WithRoutingPolicy selects the built-in routing strategy of a policy
// constant.
func WithRoutingPolicy(p RoutingPolicy) SessionOption { return wdm.WithRoutingPolicy(p) }

// WithWavelengthBudget caps a session at w wavelengths: every Add and
// TryAdd runs budget admission before any state mutates (see the
// "Admission control & budgets" section). w <= 0 means unlimited.
func WithWavelengthBudget(w int) SessionOption { return wdm.WithWavelengthBudget(w) }

// WithAdmissionStrategy selects how a budgeted session handles
// over-budget requests (default: reject).
func WithAdmissionStrategy(s AdmissionStrategy) SessionOption {
	return wdm.WithAdmissionStrategy(s)
}

// Sharded-engine options and batch constructors, re-exported from the
// wdm layer.

// WithShardWorkers bounds the number of workers ApplyBatch fans shards
// out to (default: runtime.GOMAXPROCS(0)).
func WithShardWorkers(n int) ShardedOption { return wdm.WithShardWorkers(n) }

// WithShardSessionOptions forwards session options to every per-shard
// session of a ShardedEngine.
func WithShardSessionOptions(opts ...SessionOption) ShardedOption {
	return wdm.WithShardSessionOptions(opts...)
}

// WithSubshardThreshold sets the component size (in vertices) at which
// a ShardedEngine decomposes a component into arc-disjoint regions and
// runs it two-level; 0 disables sub-sharding.
func WithSubshardThreshold(n int) ShardedOption { return wdm.WithSubshardThreshold(n) }

// WithEngineWavelengthBudget caps every lane of a ShardedEngine at a
// global wavelength budget of w — per-shard admission with no
// cross-shard coordination, since λ aggregates as a max. w <= 0 means
// unlimited.
func WithEngineWavelengthBudget(w int) ShardedOption {
	return wdm.WithEngineWavelengthBudget(w)
}

// AddOp returns the batch event provisioning req.
func AddOp(req Request) BatchOp { return wdm.AddOp(req) }

// RemoveOp returns the batch event tearing down id.
func RemoveOp(id ShardedID) BatchOp { return wdm.RemoveOp(id) }

// RerouteOp returns the batch event re-routing id.
func RerouteOp(id ShardedID) BatchOp { return wdm.RerouteOp(id) }

// NewDynamicConflictGraph returns an empty mutable conflict layer for
// dipaths of g: AddPath/RemovePath maintain per-arc incidence lists
// (two dipaths conflict when they share one) and an O(1) χ/ω lower
// bound, the maximum arc load. It stores no pairwise adjacency; build
// the static conflict graph with NewConflictGraph over Family when
// needed.
func NewDynamicConflictGraph(g *Graph) *DynamicConflictGraph {
	return conflict.NewDynamic(g)
}

// NewIncrementalColorer returns an empty incremental wavelength
// maintainer for dipaths of g; slack <= 0 selects the default drift
// allowance before a full recolor is forced.
func NewIncrementalColorer(g *Graph, slack int) *IncrementalColorer {
	return core.NewIncremental(g, slack)
}

// Methods reported by Color.
const (
	MethodTheorem1 = core.MethodTheorem1
	MethodTheorem6 = core.MethodTheorem6
	MethodDSATUR   = core.MethodDSATUR
)

// NewGraph returns a graph with n unlabeled vertices.
func NewGraph(n int) *Graph { return digraph.New(n) }

// NewPath builds a dipath through the given vertices of g.
func NewPath(g *Graph, vertices ...Vertex) (*Path, error) {
	return dipath.FromVertices(g, vertices...)
}

// MustPath is NewPath but panics on error.
func MustPath(g *Graph, vertices ...Vertex) *Path {
	return dipath.MustFromVertices(g, vertices...)
}

// Load returns π(G,P), the maximum arc load.
func Load(g *Graph, fam Family) int { return load.Pi(g, fam) }

// ArcLoads returns the per-arc load vector.
func ArcLoads(g *Graph, fam Family) []int { return load.ArcLoads(g, fam) }

// HasInternalCycle reports whether the DAG g contains an internal cycle —
// the obstruction to w = π identified by the paper's Main Theorem.
func HasInternalCycle(g *Graph) bool { return cycles.HasInternalCycle(g) }

// InternalCycleCount returns the number of independent internal cycles.
func InternalCycleCount(g *Graph) int { return cycles.IndependentCycleCount(g) }

// IsUPP reports whether g has the unique-dipath property; when not, a
// witness pair with two distinct dipaths is returned.
func IsUPP(g *Graph) (ok bool, from, to Vertex, err error) { return upp.IsUPP(g) }

// Color computes a wavelength assignment for fam on the DAG g using the
// strongest applicable result of the paper: Theorem 1 (w = π) without
// internal cycles, Theorem 6 (w ≤ ⌈4π/3⌉) on one-cycle UPP-DAGs, and the
// DSATUR heuristic otherwise.
func Color(g *Graph, fam Family) (*Result, Method, error) { return core.ColorDAG(g, fam) }

// ColorNoInternalCycle computes a w = π wavelength assignment (Theorem 1).
// It fails with an error when g has an internal cycle.
func ColorNoInternalCycle(g *Graph, fam Family) (*Result, error) {
	return core.ColorNoInternalCycle(g, fam)
}

// ColorOneInternalCycleUPP computes a w ≤ ⌈4π/3⌉ assignment on an
// UPP-DAG with exactly one internal cycle (Theorem 6).
func ColorOneInternalCycleUPP(g *Graph, fam Family) (*Result, error) {
	return core.ColorOneInternalCycleUPP(g, fam)
}

// VerifyColoring checks that res is a proper assignment for fam on g.
func VerifyColoring(g *Graph, fam Family, res *Result) error {
	return core.Verify(g, fam, res)
}

// NewConflictGraph builds the conflict graph of fam over g.
func NewConflictGraph(g *Graph, fam Family) *ConflictGraph {
	return conflict.FromFamily(g, fam)
}

// NewRouter returns a Router over g: routing state (visited stamps,
// predecessor chains, queues, epoch-stamped Dijkstra labels and heap)
// is allocated once and reused across requests, which is the fast path
// for AllToAll-scale batches. Searches scan a CSR copy of g's
// out-adjacency, and min-load searches visit only the destination's
// ancestors, from a per-destination bitset in one slab, reading each
// vertex's out-neighbours as a sparse bitset ANDed with that set; all
// are kept until g gains an arc or a vertex (⌈n/64⌉ slab words per
// distinct destination, at most 28 bytes per arc for the CSR and the
// neighbour words). A set is built by a reverse DFS that ORs in the
// sets already built; ShortestPaths and MinLoadSequential (and
// PrimeAncestors, for callers routing a batch request by request)
// build a batch's sets in topological order, so they cost about one
// sweep of the in-arcs. ShortestPaths and MinLoadSequential return
// families carved from one arena per call, so their paths share
// storage. A Router is not safe for concurrent use.
func NewRouter(g *Graph) *Router { return route.NewRouter(g) }

// NewLoadTracker returns an empty incremental load tracker for g: Add
// and Remove update per-arc loads in O(path length), and Pi reports the
// current maximum load without rescanning the whole family.
func NewLoadTracker(g *Graph) *LoadTracker { return load.NewTracker(g) }

// NewLoadTrackerFromFamily returns a tracker preloaded with fam.
func NewLoadTrackerFromFamily(g *Graph, fam Family) *LoadTracker {
	return load.NewTrackerFromFamily(g, fam)
}

// NewFaultSchedule draws a deterministic MTBF/MTTR fault process over
// the arcs of g: each arc independently alternates exponentially
// distributed up (mean mtbf) and down (mean mttr) periods out to the
// horizon, and the merged time-sorted cut/repair stream is returned.
// Replaying it in order against FailArc/RestoreArc is always valid.
// mtbf, mttr and horizon must each be finite and > 0: a NaN or an
// infinity is an error.
func NewFaultSchedule(g *Graph, mtbf, mttr, horizon float64, seed int64) ([]FaultEvent, error) {
	return gen.FaultSchedule(g, mtbf, mttr, horizon, seed)
}

// Serving front-end, re-exported from the serve layer (see the
// "Serving & overload" section).

// NewServer starts a serving front-end over eng: submissions queued
// while a batch applies coalesce into the next one, with deadlines,
// load shedding, bounded retry and graceful drain. The Server takes over
// eng's write path; Server.Shutdown drains and closes both.
func NewServer(eng *ShardedEngine, opts ...ServeOption) (*Server, error) {
	return serve.New(eng, opts...)
}

// NewServeClient wraps srv with client-side retry: Do resubmits
// transient outcomes (shed verdicts, budget rejections) under the
// policy's attempt budget with jittered backoff, honouring the
// server's RetryAfter hints. A zero policy selects the default.
func NewServeClient(srv *Server, policy RetryPolicy, seed int64) *ServeClient {
	return serve.NewClient(srv, policy, seed)
}

// AddRequest submits a provisioning demand from src to dst.
func AddRequest(src, dst Vertex) ServeRequest { return serve.AddRequest(src, dst) }

// RemoveRequest tears down the request with the given id.
func RemoveRequest(id ShardedID) ServeRequest { return serve.RemoveRequest(id) }

// RerouteRequest re-routes the request with the given id.
func RerouteRequest(id ShardedID) ServeRequest { return serve.RerouteRequest(id) }

// FailArcRequest injects a fiber cut on arc a through the coalescer
// (a barrier op: it flushes the batch under construction first).
func FailArcRequest(a ArcID) ServeRequest { return serve.FailArcRequest(a) }

// RestoreArcRequest repairs the cut on arc a through the coalescer.
func RestoreArcRequest(a ArcID) ServeRequest { return serve.RestoreArcRequest(a) }

// WithMaxBatch caps how many coalesced ops one engine batch may carry.
func WithMaxBatch(n int) ServeOption { return serve.WithMaxBatch(n) }

// WithQueueCapacity sets the Server's submission queue bound.
func WithQueueCapacity(n int) ServeOption { return serve.WithQueueCapacity(n) }

// WithShedDepth sets the queue depth at which submissions start
// shedding (default: shed only when the queue is full).
func WithShedDepth(n int) ServeOption { return serve.WithShedDepth(n) }

// WithBlockingBackpressure disables load shedding: submissions to a
// full queue block (bounded by their context) instead of shedding.
func WithBlockingBackpressure() ServeOption { return serve.WithBlockingBackpressure() }

// WithServerRetry retries transient engine rejections inside the
// server: up to attempts total applications per request, re-coalesced
// after jittered exponential backoff between base and max.
func WithServerRetry(attempts int, base, max time.Duration) ServeOption {
	return serve.WithServerRetry(attempts, base, max)
}

// WithServeSeed fixes the Server's backoff-jitter seed, making retry
// schedules deterministic for tests and benchmarks.
func WithServeSeed(seed int64) ServeOption { return serve.WithSeed(seed) }

// NewPoissonArrivals builds an open-loop Poisson arrival stream at the
// given rate (events per unit time), deterministic in seed; SetRamp
// adds a linear rate ramp for overload experiments.
func NewPoissonArrivals(rate float64, seed int64) (*PoissonArrivals, error) {
	return gen.NewPoissonArrivals(rate, seed)
}

// Constructions from the paper, for experimentation and testing.

// PathologicalStaircase returns the Figure 1 instance: k dipaths with
// π = 2 whose conflict graph is complete (w = k).
func PathologicalStaircase(k int) (*Graph, Family, error) { return gen.Fig1Staircase(k) }

// Figure3Instance returns the Figure 3 instance: one internal cycle,
// 5 dipaths, π = 2, w = 3.
func Figure3Instance() (*Graph, Family) { return gen.Fig3() }

// InternalCycleGadget returns the Theorem 2 construction with 2k
// direction changes: π = 2 and w = 3 whenever an internal cycle exists.
func InternalCycleGadget(k int) (*Graph, Family, error) { return gen.InternalCycleGadget(k) }

// HavetInstance returns the Theorem 7 tightness example: an UPP-DAG with
// one internal cycle whose family has π = 2 and w = 3; replicating the
// family h times gives π = 2h and w = ⌈8h/3⌉ = ⌈4π/3⌉.
func HavetInstance() (*Graph, Family) { return gen.Havet() }

// The maximum-request problem from the paper's concluding remarks: given
// a wavelength budget, select as many dipaths as possible that can still
// be satisfied. On internal-cycle-free DAGs Theorem 1 reduces the
// satisfiability test to "load ≤ budget".

// MaxRequestsGreedy selects a feasible subfamily under the wavelength
// budget, shortest dipaths first. Returns the selected indices.
func MaxRequestsGreedy(g *Graph, fam Family, budget int) []int {
	return groom.Greedy(g, fam, budget)
}

// MaxRequestsExact selects a maximum subfamily under the wavelength
// budget by branch and bound; ok=false reports that the search cap was
// hit (the selection is still feasible).
func MaxRequestsExact(g *Graph, fam Family, budget int) ([]int, bool) {
	return groom.Exact(g, fam, budget, 2_000_000)
}

// MaxRequestsOnPath solves the problem exactly in polynomial time when g
// is a directed path graph (the grooming-on-the-path setting the paper
// grew out of).
func MaxRequestsOnPath(g *Graph, fam Family, budget int) ([]int, error) {
	return groom.MaxOnPath(g, fam, budget)
}

// NewOnlineMaxRequests opens an online max-request run at wavelength
// budget w on g: dipaths are offered one at a time (Offer/OfferFamily)
// and each is irrevocably accepted or rejected by a budgeted session —
// the paper's concluding-remarks problem taken online. Extra session
// options (admission strategy, slack) pass through.
func NewOnlineMaxRequests(g *Graph, w int, opts ...SessionOption) (*OnlineMaxRequests, error) {
	return groom.NewOnline(g, w, opts...)
}

// MaxRequestsOnline offers the whole family in index order against a
// fresh budget-w online selection and returns the accepted indices —
// always feasible at w, never larger than MaxRequestsExact's answer.
func MaxRequestsOnline(g *Graph, fam Family, w int) ([]int, error) {
	return groom.OnlineMax(g, fam, w)
}
