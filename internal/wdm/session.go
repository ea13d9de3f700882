package wdm

import (
	"errors"
	"fmt"

	"wavedag/internal/core"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

// SessionID identifies a provisioned request inside one Session. It
// packs a recycled slot index with a per-slot generation, so lookups
// are O(1) array reads, stale ids from torn-down requests are detected
// (not silently resolved to a newer occupant), and a long-lived session
// does not grow with the number of operations, only with the peak
// number of live requests. Treat it as opaque.
type SessionID int64

// Session is a long-lived, incrementally maintained provisioning run —
// the dynamic counterpart of the one-shot Provision pipeline. A session
// holds persistent state in every layer:
//
//   - routing: the strategy's RoutingState (reusable Router / UPP
//     tables) survives across requests;
//   - load: a load.Tracker accounts arc loads under Add/Remove in
//     O(len(path));
//   - conflicts: the coloring strategy's state (for "incremental", a
//     conflict.Dynamic) indexes the live paths by the arcs they
//     traverse, which is the conflict relation in arc form;
//   - wavelengths: maintained online (first-fit from per-arc
//     wavelength masks + bounded repair + slack-gated full recolor)
//     instead of recomputed per event.
//
// So a request arrival or teardown costs work proportional to the paths
// it actually touches, not to the whole live family — see the churn
// benchmarks in cmd/bench for the measured per-event speedup over
// rebuild-from-scratch.
//
// A Session is not safe for concurrent use.
type Session struct {
	net      *Network
	routing  RoutingState
	coloring ColoringState
	tracker  *load.Tracker

	routingName  string
	coloringName string

	// Budgeted admission (see WithWavelengthBudget). cycleFree gates the
	// Theorem-1 precheck; rollbackProbe is the ablation knob forcing the
	// general-DAG color-then-rollback path.
	budget         int
	cycleFree      bool
	rollbackProbe  bool
	admission      AdmissionState
	admissionName  string
	stats          AdmissionStats
	bestEffortLive int

	entries []sessionEntry
	freeIdx []int32
	live    int

	// Survivability (see survive.go): dark-parked entries, the storm
	// retry budget, failure counters, the slot→entry reverse index the
	// arc-incidence affected lookup resolves through, the lazily built
	// detour router, the engine's path-delta observer, and the
	// revival sweeps' scratch.
	dark          int
	darkSeq       uint64
	stormRetries  int
	failStats     FailureStats
	slotEntry     []int32
	stormRouter   *route.Router
	pathDeltaHook func(add bool, p *dipath.Path)
	darkRefs      []int32
}

type sessionEntry struct {
	gen        uint32
	alive      bool
	bestEffort bool // admitted past the budget by the degrade strategy
	dark       bool // parked by a restoration storm; excluded from λ/π
	slot       int
	darkAt     uint64 // park order stamp (oldest-first revival)
	req        route.Request
	path       *dipath.Path

	// noRouteAt is the session graph's TopologyEpoch()+1 at which a
	// revival's min-load detour found no live dipath for req (0 = not
	// known). While the epoch stays put no search can find one, so
	// revival sweeps skip the entry (see reviveOne).
	noRouteAt uint64
}

func packID(idx int32, gen uint32) SessionID {
	return SessionID(uint64(gen)<<32 | uint64(uint32(idx)))
}

// ErrUnknownSession is the sentinel wrapped by every session lookup
// failure — ids the session never issued, double-removed ids, and stale
// ids whose slot was recycled under a newer generation. Operations
// failing a lookup mutate no state, so callers may errors.Is on it and
// carry on.
var ErrUnknownSession = errors.New("no such live session id")

// lookup resolves id to its live entry.
func (s *Session) lookup(id SessionID) (*sessionEntry, error) {
	idx := int64(uint32(id))
	gen := uint32(uint64(id) >> 32)
	if idx >= int64(len(s.entries)) {
		return nil, fmt.Errorf("wdm: unknown session id %d: %w", id, ErrUnknownSession)
	}
	e := &s.entries[idx]
	if !e.alive || e.gen != gen {
		return nil, fmt.Errorf("wdm: session id %d: %w", id, ErrUnknownSession)
	}
	return e, nil
}

// sessionConfig collects NewSession options.
type sessionConfig struct {
	routing       RoutingStrategy
	coloring      ColoringStrategy
	admission     AdmissionStrategy
	slack         int
	capacity      int
	budget        int
	stormRetries  int // -1 = default (2 per affected path)
	rollbackProbe bool
}

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig) error

// WithRoutingStrategy selects the routing strategy (default: shortest).
func WithRoutingStrategy(s RoutingStrategy) SessionOption {
	return func(c *sessionConfig) error {
		if s == nil {
			return fmt.Errorf("wdm: nil routing strategy")
		}
		c.routing = s
		return nil
	}
}

// WithRoutingPolicy selects the routing strategy registered for the
// legacy policy constant.
func WithRoutingPolicy(p RoutingPolicy) SessionOption {
	return func(c *sessionConfig) error {
		s, err := p.Strategy()
		if err != nil {
			return err
		}
		c.routing = s
		return nil
	}
}

// WithColoringStrategy selects the coloring strategy (default:
// incremental).
func WithColoringStrategy(s ColoringStrategy) SessionOption {
	return func(c *sessionConfig) error {
		if s == nil {
			return fmt.Errorf("wdm: nil coloring strategy")
		}
		c.coloring = s
		return nil
	}
}

// WithColoringStrategyName selects a registered coloring strategy.
func WithColoringStrategyName(name string) SessionOption {
	return func(c *sessionConfig) error {
		s, ok := LookupColoringStrategy(name)
		if !ok {
			return fmt.Errorf("wdm: unknown coloring strategy %q", name)
		}
		c.coloring = s
		return nil
	}
}

// WithSlack sets how many wavelengths the incremental coloring may
// drift above its lower bound before a full recolor is forced (<= 0
// selects the default).
func WithSlack(slack int) SessionOption {
	return func(c *sessionConfig) error {
		c.slack = slack
		return nil
	}
}

// WithCapacityHint pre-sizes the session's request table for the
// expected number of simultaneously live requests, avoiding growth
// reallocations when a caller fills the session with a known batch.
func WithCapacityHint(n int) SessionOption {
	return func(c *sessionConfig) error {
		if n > 0 {
			c.capacity = n
		}
		return nil
	}
}

// WithWavelengthBudget caps the session at w wavelengths: every Add and
// TryAdd runs budget admission before any state mutates — the O(path)
// Theorem-1 load precheck on internal-cycle-free topologies (a family
// fits in w wavelengths there exactly when its load is at most w), a
// color-then-rollback probe on general DAGs — and over-budget requests
// are handed to the session's admission strategy (default: reject).
// w <= 0 means unlimited, the default.
func WithWavelengthBudget(w int) SessionOption {
	return func(c *sessionConfig) error {
		if w < 0 {
			return fmt.Errorf("wdm: wavelength budget must be >= 0, got %d", w)
		}
		c.budget = w
		return nil
	}
}

// WithAdmissionStrategy selects how a budgeted session handles requests
// that fail the budget check (default: the "reject" strategy).
func WithAdmissionStrategy(s AdmissionStrategy) SessionOption {
	return func(c *sessionConfig) error {
		if s == nil {
			return fmt.Errorf("wdm: nil admission strategy")
		}
		c.admission = s
		return nil
	}
}

// WithAdmissionStrategyName selects a registered admission strategy
// (AdmissionReject, AdmissionRetryAltRoute or AdmissionDegrade for the
// built-ins).
func WithAdmissionStrategyName(name string) SessionOption {
	return func(c *sessionConfig) error {
		s, ok := LookupAdmissionStrategy(name)
		if !ok {
			return fmt.Errorf("wdm: unknown admission strategy %q", name)
		}
		c.admission = s
		return nil
	}
}

// WithStormRetryBudget bounds the min-load detour retries one
// restoration storm may spend across all its affected paths (see
// Session.FailArc). n = 0 disables detours (primary reroute only);
// n < 0 selects the default of two detours per affected path.
func WithStormRetryBudget(n int) SessionOption {
	return func(c *sessionConfig) error {
		if n < 0 {
			n = -1
		}
		c.stormRetries = n
		return nil
	}
}

// WithAdmissionRollbackProbe forces the general-DAG color-then-rollback
// admission probe even on internal-cycle-free topologies. It exists as
// the ablation axis of the admission benchmarks (pricing the Theorem-1
// precheck against the fallback it replaces); production sessions have
// no reason to set it.
func WithAdmissionRollbackProbe() SessionOption {
	return func(c *sessionConfig) error {
		c.rollbackProbe = true
		return nil
	}
}

// NewSession opens a dynamic provisioning session on the network. The
// defaults are shortest-path routing and incremental coloring.
func (n *Network) NewSession(opts ...SessionOption) (*Session, error) {
	cfg := sessionConfig{stormRetries: -1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.routing == nil {
		var err error
		if cfg.routing, err = RouteShortest.Strategy(); err != nil {
			return nil, err
		}
	}
	if cfg.coloring == nil {
		s, ok := LookupColoringStrategy(ColoringIncremental)
		if !ok {
			return nil, fmt.Errorf("wdm: incremental coloring strategy not registered")
		}
		cfg.coloring = s
	}
	if cfg.budget > 0 && cfg.admission == nil {
		a, ok := LookupAdmissionStrategy(AdmissionReject)
		if !ok {
			return nil, fmt.Errorf("wdm: reject admission strategy not registered")
		}
		cfg.admission = a
	}
	routing, err := cfg.routing.NewState(n.Topology)
	if err != nil {
		return nil, fmt.Errorf("wdm: routing setup: %w", err)
	}
	coloring, err := cfg.coloring.NewState(n.Topology, cfg.slack)
	if err != nil {
		return nil, fmt.Errorf("wdm: coloring setup: %w", err)
	}
	s := &Session{
		net:           n,
		routing:       routing,
		coloring:      coloring,
		tracker:       load.NewTracker(n.Topology),
		routingName:   cfg.routing.Name(),
		coloringName:  cfg.coloring.Name(),
		budget:        cfg.budget,
		stormRetries:  cfg.stormRetries,
		rollbackProbe: cfg.rollbackProbe,
		entries:       make([]sessionEntry, 0, cfg.capacity),
	}
	if cfg.admission != nil {
		s.admission, err = cfg.admission.NewState(n.Topology)
		if err != nil {
			return nil, fmt.Errorf("wdm: admission setup: %w", err)
		}
		s.admissionName = cfg.admission.Name()
	}
	if cfg.budget > 0 {
		// The Theorem-1 precheck is sound exactly when the topology has no
		// internal cycle; one O(V+A) scan at construction decides which
		// admission path every later offer takes.
		s.cycleFree = !cycles.HasInternalCycle(n.Topology)
	}
	return s, nil
}

// RoutingStrategyName returns the name of the session's routing
// strategy.
func (s *Session) RoutingStrategyName() string { return s.routingName }

// ColoringStrategyName returns the name of the session's coloring
// strategy.
func (s *Session) ColoringStrategyName() string { return s.coloringName }

// AdmissionStrategyName returns the name of the session's admission
// strategy, or "" when the session has none configured.
func (s *Session) AdmissionStrategyName() string { return s.admissionName }

// Budget returns the session's wavelength budget (0 = unlimited).
func (s *Session) Budget() int { return s.budget }

// AdmissionStats returns the session's cumulative admission counters.
// Unbudgeted sessions count every offer as accepted, so the engine's
// per-lane traffic shares work with or without a budget.
func (s *Session) AdmissionStats() AdmissionStats { return s.stats }

// BestEffortLive returns how many live requests were admitted past the
// budget by the degrade strategy. While it is non-zero the session's
// λ ≤ budget invariant is suspended.
func (s *Session) BestEffortLive() int { return s.bestEffortLive }

// IsBestEffort reports whether the live request id was admitted past
// the budget.
func (s *Session) IsBestEffort(id SessionID) (bool, error) {
	e, err := s.lookup(id)
	if err != nil {
		return false, err
	}
	return e.bestEffort, nil
}

// Len returns the number of live requests.
func (s *Session) Len() int { return s.live }

// Pi returns the current load π of the live routing.
func (s *Session) Pi() int { return s.tracker.Pi() }

// ArcLoads returns a copy of the session's per-arc load vector — the
// observability twin of ShardedEngine.ArcLoads (budget experiments read
// it to find saturated arcs).
func (s *Session) ArcLoads() []int { return s.tracker.Loads() }

// ArcLoadsInto is ArcLoads with a caller-owned buffer: dst is resized
// to the arc count reusing its capacity, so a polling caller pays no
// per-call allocation (see Tracker.LoadsInto).
func (s *Session) ArcLoadsInto(dst []int) []int { return s.tracker.LoadsInto(dst) }

// NumLambda returns the number of wavelengths currently in use. With
// the incremental strategy this is O(1); with the full strategy it
// recomputes from scratch.
func (s *Session) NumLambda() (int, error) { return s.coloring.NumLambda() }

// Add routes req, runs budget admission when one is configured,
// inserts the request into the conflict and load state, assigns a
// wavelength, and returns its id. On a budgeted session a rejection is
// an error wrapping ErrBudgetExceeded; TryAdd reports the same outcome
// without the error detour.
func (s *Session) Add(req route.Request) (SessionID, error) {
	id, adm, err := s.TryAdd(req)
	if err != nil {
		return 0, err
	}
	if !adm.Accepted {
		return 0, fmt.Errorf("wdm: admission: %w (budget %d)", ErrBudgetExceeded, s.budget)
	}
	return id, nil
}

// TryAdd routes req and runs it through budget admission: accepted
// requests are provisioned and their id returned; rejected requests
// leave the session untouched and report Accepted=false without an
// error (errors are reserved for genuine failures — no route, invalid
// paths). Unbudgeted sessions accept everything.
func (s *Session) TryAdd(req route.Request) (SessionID, Admission, error) {
	p, err := s.routing.Route(req, s.tracker)
	if err != nil {
		return 0, Admission{}, fmt.Errorf("wdm: routing: %w", err)
	}
	if crossesFailure(s.net.Topology, p) {
		// Failure-blind strategies (UPP's unique routing) can propose a
		// path over a cut fiber; to the caller that is no route.
		return 0, Admission{}, fmt.Errorf("wdm: routing: %w", route.ErrNoRoute{Req: req})
	}
	return s.tryAdmit(req, p)
}

// TryAddPath runs admission and insertion for a pre-routed dipath,
// bypassing the routing strategy — the "requests already routed" regime
// groom.Online drives. The entry's request takes p's endpoints, so a
// later Reroute re-routes it through the session's strategy.
func (s *Session) TryAddPath(p *dipath.Path) (SessionID, Admission, error) {
	if p == nil {
		return 0, Admission{}, fmt.Errorf("wdm: nil dipath")
	}
	// Validate up front: the admission precheck indexes the tracker by
	// p's arcs before any layer that would catch a foreign path.
	if err := p.Validate(s.net.Topology); err != nil {
		return 0, Admission{}, err
	}
	if crossesFailure(s.net.Topology, p) {
		return 0, Admission{}, fmt.Errorf("wdm: dipath crosses a failed arc")
	}
	return s.tryAdmit(route.Request{Src: p.First(), Dst: p.Last()}, p)
}

// tryAdmit is the admission funnel shared by TryAdd and TryAddPath:
// budget check, then the admission strategy for over-budget offers,
// with the outcome counters maintained on every exit.
func (s *Session) tryAdmit(req route.Request, p *dipath.Path) (SessionID, Admission, error) {
	s.stats.Requests++
	id, ok, err := s.admitCommit(req, p)
	if err != nil {
		return 0, Admission{}, err
	}
	if ok {
		s.stats.Accepted++
		return id, Admission{Accepted: true}, nil
	}
	id, adm, err := s.admission.Admit(&AdmissionContext{s: s, req: req, path: p})
	if err != nil {
		return 0, Admission{}, err
	}
	if adm.Accepted {
		s.stats.Accepted++
		if adm.BestEffort {
			s.stats.BestEffort++
		}
		if adm.Retried {
			s.stats.Retried++
		}
	} else {
		s.stats.Rejected++
	}
	return id, adm, nil
}

// admitCommit runs the budget check for p and inserts it when admitted.
// Cycle-free topologies use the Theorem-1 precheck — O(len(p)) against
// the live tracker, nothing touched on rejection; general DAGs (or
// sessions forcing the ablation probe) color-then-rollback through the
// coloring layer, reusing the same restore discipline as Reroute's
// failure path.
func (s *Session) admitCommit(req route.Request, p *dipath.Path) (SessionID, bool, error) {
	if s.budget <= 0 {
		id, err := s.commitPath(req, p, false)
		return id, err == nil, err
	}
	if s.cycleFree && !s.rollbackProbe {
		if !s.tracker.FitsAdditional(p, s.budget) {
			return 0, false, nil
		}
		id, err := s.commitPath(req, p, false)
		if err != nil {
			return 0, false, err
		}
		s.enforceBudgetLambda()
		return id, true, nil
	}
	slot, ok, err := s.colorUnderBudget(p)
	if err != nil {
		return 0, false, fmt.Errorf("wdm: coloring: %w", err)
	}
	if !ok {
		return 0, false, nil
	}
	return s.insertEntry(req, p, slot, false), true, nil
}

// colorUnderBudget is the color-then-rollback admission probe: insert p
// into the coloring layer only if the live assignment stays within the
// budget. States implementing BudgetedColoringState do it natively
// (exact rollback, one repack retry); any other state gets the generic
// add-measure-rollback.
func (s *Session) colorUnderBudget(p *dipath.Path) (int, bool, error) {
	if bs, ok := s.coloring.(BudgetedColoringState); ok {
		return bs.AddUnderLimit(p, s.budget)
	}
	slot, err := s.coloring.Add(p)
	if err != nil {
		return -1, false, err
	}
	n, err := s.coloring.NumLambda()
	if err == nil && n <= s.budget {
		return slot, true, nil
	}
	if rerr := s.coloring.Remove(slot); rerr != nil && err == nil {
		err = rerr
	}
	return -1, false, err
}

// commitPath inserts a routed-and-admitted path: coloring, load, entry.
func (s *Session) commitPath(req route.Request, p *dipath.Path, bestEffort bool) (SessionID, error) {
	slot, err := s.coloring.Add(p)
	if err != nil {
		return 0, fmt.Errorf("wdm: coloring: %w", err)
	}
	return s.insertEntry(req, p, slot, bestEffort), nil
}

// insertEntry accounts p in the load tracker and allocates its entry.
func (s *Session) insertEntry(req route.Request, p *dipath.Path, slot int, bestEffort bool) SessionID {
	s.trackAdd(p)
	var idx int32
	if n := len(s.freeIdx); n > 0 {
		idx = s.freeIdx[n-1]
		s.freeIdx = s.freeIdx[:n-1]
	} else {
		s.entries = append(s.entries, sessionEntry{})
		idx = int32(len(s.entries) - 1)
	}
	e := &s.entries[idx]
	e.alive, e.slot, e.req, e.path, e.bestEffort = true, slot, req, p, bestEffort
	s.bindSlot(slot, idx)
	if bestEffort {
		s.bestEffortLive++
	}
	s.live++
	return packID(idx, e.gen)
}

// enforceBudgetLambda restores λ ≤ budget after a Theorem-1-admitted
// mutation: the incremental colorer may drift above the budget even
// though the load fits, and on internal-cycle-free topologies the cold
// pipeline is guaranteed to come back under (Theorem 1: λ = π ≤
// budget). Suspended while best-effort traffic is live — the invariant
// cannot hold then — and skipped for coloring states without the budget
// hooks (deferred strategies re-solve at materialisation, where the
// strongest theorem applies anyway).
func (s *Session) enforceBudgetLambda() {
	if s.budget <= 0 || s.bestEffortLive > 0 {
		return
	}
	if bs, ok := s.coloring.(BudgetedColoringState); ok {
		bs.EnsureAtMost(s.budget)
	}
}

// Remove tears down the request with the given id, releasing its
// wavelength and load. Removing a dark entry just discards it. Freed
// capacity triggers the best-effort promotion and dark revival sweeps.
func (s *Session) Remove(id SessionID) error {
	e, err := s.lookup(id)
	if err != nil {
		return err
	}
	if e.dark {
		// Dark entries hold no coloring or load; releasing the entry is
		// the whole teardown.
		s.release(id, e)
		return nil
	}
	if err := s.coloring.Remove(e.slot); err != nil {
		return err
	}
	s.unbindSlot(e.slot)
	s.trackRemove(e.path)
	s.release(id, e)
	s.promoteBestEffort()
	s.enforceBudgetLambda()
	s.reviveDark()
	return nil
}

// release retires a live entry: the slot index is recycled under a new
// generation, so the old id stops resolving.
func (s *Session) release(id SessionID, e *sessionEntry) {
	e.alive = false
	e.gen++
	e.path = nil
	if e.dark {
		e.dark = false
		e.darkAt = 0
		s.dark--
	} else {
		s.live--
	}
	if e.bestEffort {
		e.bestEffort = false
		s.bestEffortLive--
	}
	s.freeIdx = append(s.freeIdx, int32(uint32(id)))
}

// Reroute re-routes the request with the given id against the current
// loads (excluding itself) and, when the route changes, reassigns its
// wavelength. It reports whether the path changed. Rerouting a dark
// entry is a revival attempt: true means it came back live.
func (s *Session) Reroute(id SessionID) (bool, error) {
	e, err := s.lookup(id)
	if err != nil {
		return false, err
	}
	if e.dark {
		if s.reviveOne(int32(uint32(id)), e) {
			s.enforceBudgetLambda()
			return true, nil
		}
		return false, nil
	}
	// Route against the loads without this request, as a fresh arrival
	// would see them.
	s.trackRemove(e.path)
	p, err := s.routing.Route(e.req, s.tracker)
	if err == nil && crossesFailure(s.net.Topology, p) {
		err = route.ErrNoRoute{Req: e.req} // failure-blind strategy routed over a cut
	}
	if err != nil {
		s.trackAdd(e.path) // restore
		return false, fmt.Errorf("wdm: rerouting: %w", err)
	}
	if p.Equal(e.path) {
		s.trackAdd(e.path)
		return false, nil
	}
	// A budgeted session only switches to a route that itself passes
	// admission; otherwise the old path stands — not an error, the
	// request stays provisioned. The cycle-free precheck answers here;
	// the general-DAG probe is woven into the coloring swap below.
	budgeted := s.budget > 0 && !e.bestEffort
	if budgeted && s.cycleFree && !s.rollbackProbe && !s.tracker.FitsAdditional(p, s.budget) {
		s.trackAdd(e.path)
		return false, nil
	}
	if err := s.coloring.Remove(e.slot); err != nil {
		s.trackAdd(e.path)
		return false, err
	}
	s.unbindSlot(e.slot)
	idx := int32(uint32(id))
	var slot int
	if budgeted && (!s.cycleFree || s.rollbackProbe) {
		var ok bool
		slot, ok, err = s.colorUnderBudget(p)
		if err == nil && !ok {
			// New route over budget: keep the old path (it fit before). The
			// probe's repack may have permuted the palette, so the restore
			// re-enforces λ ≤ budget before reporting no change.
			if oldSlot, restoreErr := s.coloring.Add(e.path); restoreErr == nil {
				e.slot = oldSlot
				s.bindSlot(oldSlot, idx)
				s.trackAdd(e.path)
				s.enforceBudgetLambda()
				return false, nil
			}
			s.release(id, e)
			return false, fmt.Errorf("wdm: rerouting: %w (request %d dropped)", ErrBudgetExceeded, id)
		}
	} else {
		slot, err = s.coloring.Add(p)
	}
	if err != nil {
		// Try to restore the old path; the session must stay consistent.
		if oldSlot, restoreErr := s.coloring.Add(e.path); restoreErr == nil {
			e.slot = oldSlot
			s.bindSlot(oldSlot, idx)
			s.trackAdd(e.path)
			s.enforceBudgetLambda()
			return false, fmt.Errorf("wdm: rerouting: %w", err)
		}
		s.release(id, e)
		return false, fmt.Errorf("wdm: rerouting: %w (request %d dropped)", err, id)
	}
	s.trackAdd(p)
	e.slot, e.path = slot, p
	s.bindSlot(slot, idx)
	s.enforceBudgetLambda()
	return true, nil
}

// Path returns the current route of a live request. For a dark entry
// it returns the parked route — the last path the request held, which
// may cross the failed arc that parked it.
func (s *Session) Path(id SessionID) (*dipath.Path, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return e.path, nil
}

// Wavelength returns the current wavelength of a live request, or -1
// when the request is parked dark or the session's coloring strategy
// defers assignment (see Provisioning for the materialised answer).
func (s *Session) Wavelength(id SessionID) (int, error) {
	e, err := s.lookup(id)
	if err != nil {
		return -1, err
	}
	if e.dark {
		return -1, nil
	}
	return s.coloring.Wavelength(e.slot), nil
}

// IDs returns the lit session ids in slot order — a deterministic
// order that equals arrival order until slots are recycled by Remove.
// Provisioning and Verify materialise the live set in the same order;
// dark entries are excluded (see DarkIDs).
func (s *Session) IDs() []SessionID {
	ids := make([]SessionID, 0, s.live)
	for idx := range s.entries {
		if e := &s.entries[idx]; e.alive && !e.dark {
			ids = append(ids, packID(int32(idx), e.gen))
		}
	}
	return ids
}

// snapshot materialises the lit set in slot order (see IDs).
func (s *Session) snapshot() (slots []int, fam dipath.Family) {
	slots = make([]int, 0, s.live)
	fam = make(dipath.Family, 0, s.live)
	for idx := range s.entries {
		if e := &s.entries[idx]; e.alive && !e.dark {
			slots = append(slots, e.slot)
			fam = append(fam, e.path)
		}
	}
	return slots, fam
}

// fillSnapshotRows freezes the session's slot table into rows (sized
// to len(s.entries) by the caller) for the engine's published snapshot:
// free slots as snapFree, dark entries with their parked route and
// wavelength -1, lit entries with their current wavelength offset by
// band (the overlay lane's banding base; 0 elsewhere). Deferred
// wavelengths (-1) are never banded, matching Wavelength.
func (s *Session) fillSnapshotRows(rows []snapRow, band int) {
	for idx := range s.entries {
		e := &s.entries[idx]
		switch {
		case !e.alive:
			rows[idx] = snapRow{}
		case e.dark:
			rows[idx] = snapRow{gen: e.gen, state: snapDark, wavelength: -1, path: e.path}
		default:
			w := s.coloring.Wavelength(e.slot)
			if w >= 0 {
				w += band
			}
			rows[idx] = snapRow{gen: e.gen, state: snapLit, wavelength: int32(w), path: e.path}
		}
	}
}

// Provisioning materialises the session's current state as a
// Provisioning, with paths and wavelengths in id order (see IDs).
func (s *Session) Provisioning() (*Provisioning, error) {
	slots, fam := s.snapshot()
	colors, num, method, err := s.coloring.Assignment(slots, fam)
	if err != nil {
		return nil, fmt.Errorf("wdm: wavelength assignment: %w", err)
	}
	return s.net.provisioning(fam, colors, num, s.tracker.Pi(), method), nil
}

// Verify checks the session's live wavelength assignment against the
// invariant: arc-sharing dipaths carry distinct wavelengths. It is the
// safety net the incremental engine is pinned to in tests.
func (s *Session) Verify() error {
	slots, fam := s.snapshot()
	colors, num, _, err := s.coloring.Assignment(slots, fam)
	if err != nil {
		return err
	}
	res := &core.Result{Colors: colors, NumColors: num, Pi: s.tracker.Pi()}
	return core.Verify(s.net.Topology, fam, res)
}

// ── Re-layout primitives (adaptive layout plane; see adaptive.go) ──────
//
// The sharded engine reshapes its lane layout online: budget re-banding
// moves wavelengths between the region band and the overlay slice,
// re-splitting carves a hot region in two, and live AddArc grows the
// topology under a running engine. All three are built from the four
// session primitives below plus growTopology — adoption moves an
// already-admitted lightpath between lane sessions without touching the
// admission counters (relocation is not a new offer), retirement drains
// a lane whose entries moved away, and growTopology re-syncs per-arc
// state after the session's graph gained arcs in place.

// adoptPath relocates an already-admitted lightpath into this session:
// p is colored under the session's budget with the same discipline as
// restoreCommit (Theorem-1 precheck on cycle-free topologies,
// color-under-limit elsewhere), and the new entry keeps the request and
// best-effort flag of the original. Best-effort entries bypass the
// budget check — they were admitted past it by the degrade strategy and
// keep that status. ok=false means the budget rejected p with the
// session untouched; the caller parks the entry dark instead (see
// adoptDark).
func (s *Session) adoptPath(req route.Request, p *dipath.Path, bestEffort bool) (SessionID, bool, error) {
	var slot int
	var err error
	switch {
	case s.budget <= 0 || bestEffort:
		if slot, err = s.coloring.Add(p); err != nil {
			return 0, false, err
		}
	case s.cycleFree && !s.rollbackProbe:
		if !s.tracker.FitsAdditional(p, s.budget) {
			return 0, false, nil
		}
		if slot, err = s.coloring.Add(p); err != nil {
			return 0, false, err
		}
	default:
		var ok bool
		slot, ok, err = s.colorUnderBudget(p)
		if err != nil || !ok {
			return 0, false, err
		}
	}
	id := s.insertEntry(req, p, slot, bestEffort)
	s.enforceBudgetLambda()
	return id, true, nil
}

// adoptDark relocates an entry into this session parked dark: the route
// is retained for later revival sweeps but holds no coloring or load —
// the same shape park leaves a storm victim in (dark entries are never
// best-effort; park drops the flag and so does dark adoption).
func (s *Session) adoptDark(req route.Request, p *dipath.Path) SessionID {
	var idx int32
	if n := len(s.freeIdx); n > 0 {
		idx = s.freeIdx[n-1]
		s.freeIdx = s.freeIdx[:n-1]
	} else {
		s.entries = append(s.entries, sessionEntry{})
		idx = int32(len(s.entries) - 1)
	}
	e := &s.entries[idx]
	s.darkSeq++
	e.alive, e.dark, e.slot, e.darkAt, e.noRouteAt, e.req, e.path = true, true, -1, s.darkSeq, 0, req, p
	s.dark++
	return packID(idx, e.gen)
}

// drainRetire empties a session whose entries relocated to other lanes
// during a re-layout: every slot stops resolving (stale lookups fail and
// are forwarded by the engine), live/dark drop to zero, but the
// cumulative admission and failure counters survive — the engine keeps
// retired lanes in its stats aggregation so no traffic history is lost.
// The coloring and tracker state is abandoned, not torn down: the
// session is never offered another request.
func (s *Session) drainRetire() {
	s.entries = s.entries[:0]
	s.freeIdx = s.freeIdx[:0]
	s.slotEntry = s.slotEntry[:0]
	s.live, s.dark, s.bestEffortLive = 0, 0, 0
}

// growTopology re-syncs the session's per-arc state after its topology
// gained arcs in place (the engine's live AddArc): the load tracker and
// the coloring state's arc incidence extend (the new arcs carry no
// load), the routing state is rebuilt from its registered strategy —
// precomputed tables may depend on the arc set, and a strategy may
// legitimately refuse the grown graph (UPP uniqueness can break) — the
// lazily built storm detour router is dropped, and the Theorem-1 gate is
// recomputed: a new arc can close an internal cycle, demoting the
// precheck to the general-DAG probe. On a routing error the session is
// unchanged except for the (harmless) tracker growth.
func (s *Session) growTopology() error {
	g := s.net.Topology
	s.tracker.GrowArcs(g.NumArcs())
	if gr, ok := s.coloring.(interface{ GrowArcs(n int) }); ok {
		gr.GrowArcs(g.NumArcs())
	}
	strat, ok := LookupRoutingStrategy(s.routingName)
	if !ok {
		return fmt.Errorf("wdm: routing strategy %q not registered", s.routingName)
	}
	rs, err := strat.NewState(g)
	if err != nil {
		return fmt.Errorf("wdm: routing setup: %w", err)
	}
	s.routing = rs
	s.stormRouter = nil
	if s.budget > 0 {
		s.cycleFree = !cycles.HasInternalCycle(g)
	}
	return nil
}

// setBudget re-bands the session's wavelength budget in place (adaptive
// banding): the caller guarantees the live assignment fits the new
// budget, and the λ ≤ budget invariant is re-enforced immediately. Only
// budgeted sessions re-band — admission machinery and the Theorem-1
// gate were configured at construction and do not change here.
func (s *Session) setBudget(w int) {
	if s.budget <= 0 || w <= 0 {
		return
	}
	s.budget = w
	s.enforceBudgetLambda()
}

// countADMs counts the add-drop multiplexers of an assignment: one ADM
// terminates lightpaths at each distinct (endpoint vertex, wavelength)
// pair, so lightpaths that chain through a node on one wavelength share
// the ADM there instead of being double-counted (the flat 2·|family|
// the earlier versions reported). One counting pass groups the paths by
// wavelength; a vertex stamp then counts each group's distinct
// endpoints, in O(n + V + λ) with no sort. Wavelengths are offset by
// their minimum, so an unassigned −1 is a wavelength of its own.
func countADMs(fam dipath.Family, colors []int) int {
	if len(fam) == 0 {
		return 0
	}
	lo, hi, nv := colors[0], colors[0], 0
	for i, p := range fam {
		lo, hi = min(lo, colors[i]), max(hi, colors[i])
		nv = max(nv, int(p.First())+1, int(p.Last())+1)
	}
	// next[c-lo] is where the next path of wavelength c goes in byColor.
	next := make([]int32, hi-lo+1)
	for _, c := range colors {
		next[c-lo]++
	}
	sum := int32(0)
	for c, k := range next {
		next[c] = sum
		sum += k
	}
	byColor := make([]int32, len(fam))
	for i, c := range colors {
		byColor[next[c-lo]] = int32(i)
		next[c-lo]++
	}
	// stamp[v] = 1 + the offset wavelength of the last group counting v;
	// the groups come contiguously, so an older stamp never matches.
	stamp := make([]int32, nv)
	count := 0
	for _, i := range byColor {
		c, p := int32(colors[i]-lo)+1, fam[i]
		for _, v := range [2]digraph.Vertex{p.First(), p.Last()} {
			if stamp[v] != c {
				stamp[v] = c
				count++
			}
		}
	}
	return count
}
