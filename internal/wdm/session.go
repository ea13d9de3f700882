package wdm

import (
	"errors"
	"fmt"

	"wavedag/internal/conflict"
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
//   - conflicts: the colorer's conflict.Dynamic indexes the live paths
//     by the arcs they traverse, which is the conflict relation in arc
//     form;
//   - wavelengths: a core.Incremental maintains them online (first-fit
//     from per-arc wavelength masks + bounded repair + slack-gated full
//     recolor) instead of recomputing them per event.
//
// So a request arrival or teardown costs work proportional to the paths
// it actually touches, not to the whole live family (BenchmarkSessionChurn
// measures the per-event cost).
//
// A Session is not safe for concurrent use.
type Session struct {
	net          *Network
	routing      RoutingState
	routingStrat RoutingStrategy
	coloring     colorer
	tracker      *load.Tracker

	// Budgeted admission (see WithWavelengthBudget). cycleFree gates the
	// Theorem-1 precheck; rollbackProbe is the ablation knob forcing the
	// general-DAG color-then-rollback path. budgetErr is the error every
	// refused Add returns, built once because the budget is fixed.
	budget         int
	budgetErr      error
	cycleFree      bool
	rollbackProbe  bool
	admission      AdmissionState
	admitCtx       AdmissionContext // the context of the offer under Admit
	stats          AdmissionStats
	bestEffortLive int

	entries []sessionEntry
	freeIdx []int32
	live    int

	// Survivability (see survive.go): dark-parked entries, failure
	// counters, the slot→entry reverse index the
	// arc-incidence affected lookup resolves through, the lazily built
	// detour router, the engine's path-delta observer, and the dark
	// queue the revival sweeps walk in park order.
	dark          int
	darkSeq       uint64
	failStats     FailureStats
	slotEntry     []int32
	stormRouter   *route.Router
	pathDeltaHook func(add bool, p *dipath.Path)
	darkQueue     []darkRef
}

// colorer is the session's coloring layer. *core.Incremental is its
// only implementation; the interface lets tests wrap it to inject
// failures into Add.
type colorer interface {
	Add(p *dipath.Path) (int, error)
	Remove(slot int) error
	AddUnderLimit(p *dipath.Path, limit int) (slot int, ok bool, err error)
	EnsureAtMost(limit int) int
	Snapshot() []int
	Restore(colors []int)
	Wavelength(slot int) int
	Colors(slots []int) []int
	NumLambda() int
	GrowArcs(n int)
	Dynamic() *conflict.Dynamic
	WarmRecolors() int
	FullRecolors() int
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
	admission     AdmissionStrategy
	budget        int
	rollbackProbe bool
}

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig) error

// WithRoutingStrategy selects the routing strategy (default:
// RouteShortest).
func WithRoutingStrategy(s RoutingStrategy) SessionOption {
	return func(c *sessionConfig) error {
		if s == nil {
			return fmt.Errorf("wdm: nil routing strategy")
		}
		c.routing = s
		return nil
	}
}

// WithRoutingPolicy selects the built-in routing strategy of a policy
// constant.
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
// that fail the budget check (default: AdmissionReject).
func WithAdmissionStrategy(s AdmissionStrategy) SessionOption {
	return func(c *sessionConfig) error {
		if s == nil {
			return fmt.Errorf("wdm: nil admission strategy")
		}
		c.admission = s
		return nil
	}
}

// withAdmissionRollbackProbe forces the general-DAG color-then-rollback
// admission probe even on internal-cycle-free topologies. It exists as
// the ablation axis of the admission tests and benchmarks (pricing the
// Theorem-1 precheck against the fallback it replaces).
func withAdmissionRollbackProbe() SessionOption {
	return func(c *sessionConfig) error {
		c.rollbackProbe = true
		return nil
	}
}

// NewSession opens a dynamic provisioning session on the network. The
// default routing is shortest-path.
func (n *Network) NewSession(opts ...SessionOption) (*Session, error) {
	var cfg sessionConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.routing == nil {
		cfg.routing = RouteShortest
	}
	if cfg.budget > 0 && cfg.admission == nil {
		cfg.admission = rejectStrategy{}
	}
	routing, err := cfg.routing.NewState(n.Topology)
	if err != nil {
		return nil, fmt.Errorf("wdm: routing setup: %w", err)
	}
	s := &Session{
		net:           n,
		routing:       routing,
		routingStrat:  cfg.routing,
		coloring:      core.NewIncremental(n.Topology, 0),
		tracker:       load.NewTracker(n.Topology),
		budget:        cfg.budget,
		rollbackProbe: cfg.rollbackProbe,
	}
	if cfg.admission != nil {
		s.admission, err = cfg.admission.NewState(n.Topology)
		if err != nil {
			return nil, fmt.Errorf("wdm: admission setup: %w", err)
		}
	}
	if cfg.budget > 0 {
		// The Theorem-1 precheck is sound exactly when the topology has no
		// internal cycle; one O(V+A) scan at construction decides which
		// admission path every later offer takes.
		s.cycleFree = !cycles.HasInternalCycle(n.Topology)
		s.budgetErr = fmt.Errorf("wdm: admission: %w (budget %d)", ErrBudgetExceeded, cfg.budget)
	}
	return s, nil
}

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

// NumLambda returns the number of wavelengths currently in use, an O(1)
// read of the incremental colorer. The error is always nil; it stays in
// the signature because callers, wavebench among them, use the
// two-value form.
func (s *Session) NumLambda() (int, error) { return s.coloring.NumLambda(), nil }

// Add routes req, runs budget admission when one is configured,
// inserts the request into the conflict and load state, assigns a
// wavelength, and returns its id. On a budgeted session a rejection is
// an error wrapping ErrBudgetExceeded. The session builds that error
// once and returns the same value for every rejection, so a refusal
// costs no allocation; callers must not rely on its identity beyond
// errors.Is. TryAdd reports the same outcome without the error detour.
func (s *Session) Add(req route.Request) (SessionID, error) {
	id, adm, err := s.TryAdd(req)
	if err != nil {
		return 0, err
	}
	if !adm.Accepted {
		return 0, s.budgetErr
	}
	return id, nil
}

// TryAdd routes req and runs it through budget admission: accepted
// requests are provisioned and their id returned; rejected requests
// leave the session untouched and report Accepted=false without an
// error (errors are reserved for genuine failures — no route, invalid
// paths). Unbudgeted sessions accept everything.
func (s *Session) TryAdd(req route.Request) (SessionID, Admission, error) {
	p, err := s.routeReq(req)
	if err != nil {
		return 0, Admission{}, fmt.Errorf("wdm: routing: %w", err)
	}
	return s.tryAdmit(req, p)
}

// routeReq asks the session's routing strategy for a path for req and
// checks that the path serves it (see checkServes). Every path a
// strategy proposes enters the session through here.
func (s *Session) routeReq(req route.Request) (*dipath.Path, error) {
	p, err := s.routing.Route(req, s.tracker)
	if err == nil {
		err = s.checkServes(req, p)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// checkServes reports whether p, a path proposed by a strategy, serves
// req on the live network: it must run from req.Src to req.Dst, and a
// path over a failed arc is no route — failure-blind strategies (UPP's
// unique routing) can propose one. The colorer validates p against the
// graph when it is committed.
func (s *Session) checkServes(req route.Request, p *dipath.Path) error {
	if p == nil || p.First() != req.Src || p.Last() != req.Dst {
		return fmt.Errorf("wdm: strategy path %v does not serve request %d->%d", p, req.Src, req.Dst)
	}
	if crossesFailure(s.net.Topology, p) {
		return route.ErrNoRoute{Req: req}
	}
	return nil
}

// TryAddPath runs admission and insertion for a pre-routed dipath,
// bypassing the routing strategy — the "requests already routed" regime
// groom.Online drives. The entry's request takes p's endpoints, so a
// later Reroute re-routes it through the session's strategy.
func (s *Session) TryAddPath(p *dipath.Path) (SessionID, Admission, error) {
	if p == nil {
		return 0, Admission{}, fmt.Errorf("wdm: nil dipath")
	}
	// Validate up front, so that a foreign path fails before admission
	// counts it as an offer.
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
	s.admitCtx = AdmissionContext{s: s, req: req, path: p}
	id, adm, err := s.admission.Admit(&s.admitCtx)
	s.admitCtx.path = nil
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

// admitCommit runs the budget check for p and inserts it when admitted
// (see budgetedAdd). A Theorem-1 admission then restores λ ≤ budget,
// which the incremental palette may have drifted past; the rollback
// probe keeps λ ≤ budget by itself.
func (s *Session) admitCommit(req route.Request, p *dipath.Path) (SessionID, bool, error) {
	slot, ok, err := s.budgetedAdd(p)
	if err != nil {
		return 0, false, fmt.Errorf("wdm: coloring: %w", err)
	}
	if !ok {
		return 0, false, nil
	}
	id := s.insertEntry(req, p, slot, false)
	if s.usesPrecheck() {
		s.enforceBudgetLambda()
	}
	return id, true, nil
}

// budgetedAdd colors p under the session's budget and returns its slot;
// ok=false when the budget rejects p, with the colorer untouched.
// Cycle-free topologies use the Theorem-1 precheck — O(len(p)) against
// the live tracker; general DAGs (or sessions forcing the ablation
// probe) color-then-rollback through AddUnderLimit, which is a plain
// Add on an unbudgeted session. Either way the colorer validates p
// before any state changes.
func (s *Session) budgetedAdd(p *dipath.Path) (slot int, ok bool, err error) {
	if !s.usesPrecheck() {
		return s.coloring.AddUnderLimit(p, s.budget)
	}
	if !s.tracker.FitsAdditional(p, s.budget) {
		return -1, false, nil
	}
	slot, err = s.coloring.Add(p)
	return slot, err == nil, err
}

// usesPrecheck reports whether budget admission runs the Theorem-1 load
// precheck: a budgeted session on a topology without internal cycle
// that does not force the rollback probe.
func (s *Session) usesPrecheck() bool { return s.cycleFree && !s.rollbackProbe }

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
// cannot hold then.
func (s *Session) enforceBudgetLambda() {
	if s.budget <= 0 || s.bestEffortLive > 0 {
		return
	}
	s.coloring.EnsureAtMost(s.budget)
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
	p, err := s.routeReq(e.req)
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
	if budgeted && s.usesPrecheck() && !s.tracker.FitsAdditional(p, s.budget) {
		s.trackAdd(e.path)
		return false, nil
	}
	// The probe's removal and repack may permute the palette, so a probe
	// lane keeps the wavelengths it holds, which fit the budget, for a
	// refused swap whose restore cannot re-enforce the budget.
	var saved []int
	if budgeted && !s.usesPrecheck() {
		saved = s.coloring.Snapshot()
	}
	oldSlot := e.slot
	if err := s.coloring.Remove(oldSlot); err != nil {
		s.trackAdd(e.path)
		return false, err
	}
	s.unbindSlot(oldSlot)
	idx := int32(uint32(id))
	slot, ok := 0, true
	if budgeted && !s.usesPrecheck() {
		slot, ok, err = s.coloring.AddUnderLimit(p, s.budget)
	} else {
		slot, err = s.coloring.Add(p)
	}
	if err != nil || !ok {
		// Restore the old path (it fit before); the session must stay
		// consistent. A probe rejection is no error, but the probe's
		// repack may have permuted the palette, so the restore re-enforces
		// λ ≤ budget before reporting no change. Where that fails, the
		// lane takes back its saved wavelengths: the old path has its
		// slot back (slots are reused last-freed first).
		back, restoreErr := s.coloring.Add(e.path)
		if restoreErr != nil {
			if err == nil {
				err = ErrBudgetExceeded
			}
			s.release(id, e)
			return false, fmt.Errorf("wdm: rerouting: %w (request %d dropped)", err, id)
		}
		e.slot = back
		s.bindSlot(back, idx)
		s.trackAdd(e.path)
		s.enforceBudgetLambda()
		if saved != nil && back == oldSlot && s.bestEffortLive == 0 && s.coloring.NumLambda() > s.budget {
			s.coloring.Restore(saved)
		}
		if err != nil {
			return false, fmt.Errorf("wdm: rerouting: %w", err)
		}
		return false, nil
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
// when the request is parked dark. The error is non-nil only for an id
// that is not live.
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
// band (the overlay lane's banding base; 0 elsewhere).
func (s *Session) fillSnapshotRows(rows []snapRow, band int) {
	for idx := range s.entries {
		e := &s.entries[idx]
		switch {
		case !e.alive:
			rows[idx] = snapRow{}
		case e.dark:
			rows[idx] = snapRow{gen: e.gen, state: snapDark, wavelength: -1, path: e.path}
		default:
			w := s.coloring.Wavelength(e.slot) + band
			rows[idx] = snapRow{gen: e.gen, state: snapLit, wavelength: int32(w), path: e.path}
		}
	}
}

// Provisioning materialises the session's current state as a
// Provisioning, with paths and wavelengths in id order (see IDs). The
// error is always nil.
func (s *Session) Provisioning() (*Provisioning, error) {
	slots, fam := s.snapshot()
	colors := s.coloring.Colors(slots)
	return s.net.provisioning(fam, colors, s.coloring.NumLambda(), s.Pi(), core.MethodIncremental), nil
}

// Verify checks the session's live wavelength assignment against the
// invariant: arc-sharing dipaths carry distinct wavelengths. It is the
// safety net the incremental engine is pinned to in tests.
func (s *Session) Verify() error {
	slots, fam := s.snapshot()
	res := &core.Result{Colors: s.coloring.Colors(slots), NumColors: s.coloring.NumLambda(), Pi: s.Pi()}
	return core.Verify(s.net.Topology, fam, res)
}

// ── Capacity-add primitives (see addarc.go) ────────────────────────────
//
// Live AddArc grows the topology under a running engine. It is built
// from the three session primitives below plus growTopology: adoption
// moves an already-admitted lightpath between lane sessions without
// touching the admission counters (relocation is not a new offer),
// retirement drains a lane whose entries moved away, and growTopology
// re-syncs per-arc state after the session's graph gained arcs in
// place.

// adoptPath relocates an already-admitted lightpath into this session:
// p is colored under the session's budget by budgetedAdd, and the new
// entry keeps the request and best-effort flag of the original.
// Best-effort entries bypass the budget check — they were admitted past
// it by the degrade strategy and keep that status. ok=false means the
// budget rejected p with the session untouched; the caller parks the
// entry dark instead (see adoptDark).
func (s *Session) adoptPath(req route.Request, p *dipath.Path, bestEffort bool) (SessionID, bool, error) {
	slot, ok, err := 0, true, error(nil)
	if bestEffort {
		slot, err = s.coloring.Add(p)
	} else {
		slot, ok, err = s.budgetedAdd(p)
	}
	if err != nil || !ok {
		return 0, false, err
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
	e.alive, e.dark, e.slot, e.darkAt, e.noRouteAt, e.req, e.path = true, true, -1, s.enqueueDark(idx), 0, req, p
	s.dark++
	return packID(idx, e.gen)
}

// drainRetire empties a session whose entries relocated to other lanes
// during a component merge: every slot stops resolving (stale lookups
// fail and are forwarded by the engine), live/dark drop to zero, but the
// cumulative admission and failure counters survive — the engine keeps
// retired lanes in its stats aggregation so no traffic history is lost.
// The coloring and tracker state is abandoned, not torn down: the
// session is never offered another request.
func (s *Session) drainRetire() {
	s.entries = s.entries[:0]
	s.freeIdx = s.freeIdx[:0]
	s.slotEntry = s.slotEntry[:0]
	s.darkQueue = s.darkQueue[:0]
	s.live, s.dark, s.bestEffortLive = 0, 0, 0
}

// growTopology re-syncs the session's per-arc state after its topology
// gained arcs in place (the engine's live AddArc): the load tracker and
// the colorer's arc incidence extend (the new arcs carry no load), the
// routing state is rebuilt from the session's own strategy value —
// precomputed tables may depend on the arc set, and a strategy may
// legitimately refuse the grown graph (UPP uniqueness can break) — the
// lazily built storm detour router is dropped, and the Theorem-1 gate is
// recomputed: a new arc can close an internal cycle, demoting the
// precheck to the general-DAG probe. On a routing error the session is
// unchanged except for the (harmless) tracker growth.
func (s *Session) growTopology() error {
	g := s.net.Topology
	s.tracker.GrowArcs(g.NumArcs())
	s.coloring.GrowArcs(g.NumArcs())
	rs, err := s.routingStrat.NewState(g)
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
