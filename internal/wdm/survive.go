package wdm

import (
	"cmp"
	"slices"
	"sort"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/route"
)

// This file is the session half of the survivability engine: live fiber
// cuts (FailArc), bounded restoration storms, dark parking for paths
// the storm cannot restore, and the re-admission sweeps that revive
// dark entries and re-promote best-effort traffic when headroom
// returns. The sharded engine builds its failure dispatch on top of
// these primitives (see sharded.go).

// FailureStats counts a session's cumulative survivability events.
type FailureStats struct {
	Cuts     int // fiber cuts applied (FailArc)
	Restores int // cuts repaired (RestoreArc)
	Affected int // live paths hit by cuts
	Restored int // affected paths rerouted by their storm
	Parked   int // affected paths parked dark
	Revived  int // dark entries brought back live by a sweep
	Promoted int // best-effort entries upgraded once λ fit the budget
	Retries  int // min-load detour attempts spent by storms
}

// StormReport is the outcome of one restoration storm: the paths the
// cut hit, how many the storm rerouted, how many it parked dark, and
// how many detour retries it spent. Affected = Restored + Parked.
type StormReport struct {
	Affected int
	Restored int
	Parked   int
	Retries  int
}

// ── Session bookkeeping shared with session.go ─────────────────────────

// trackAdd accounts p in the load tracker and notifies the engine's
// path-delta hook; every tracker mutation of the session goes through
// trackAdd/trackRemove so the sharded engine's two-level reconciliation
// sees storm-induced changes exactly like batch ops.
func (s *Session) trackAdd(p *dipath.Path) {
	s.tracker.Add(p)
	if s.pathDeltaHook != nil {
		s.pathDeltaHook(true, p)
	}
}

// trackRemove is the removal twin of trackAdd.
func (s *Session) trackRemove(p *dipath.Path) {
	s.tracker.Remove(p)
	if s.pathDeltaHook != nil {
		s.pathDeltaHook(false, p)
	}
}

// setPathDeltaHook installs the engine's delta observer (nil clears).
func (s *Session) setPathDeltaHook(f func(add bool, p *dipath.Path)) { s.pathDeltaHook = f }

// bindSlot records that coloring slot holds the entry at idx — the
// reverse index the arc-incidence affected lookup resolves slots
// through.
func (s *Session) bindSlot(slot int, idx int32) {
	for len(s.slotEntry) <= slot {
		s.slotEntry = append(s.slotEntry, -1)
	}
	s.slotEntry[slot] = idx
}

// unbindSlot clears the reverse index for a slot leaving the coloring.
func (s *Session) unbindSlot(slot int) {
	if slot >= 0 && slot < len(s.slotEntry) {
		s.slotEntry[slot] = -1
	}
}

// crossesFailure reports whether p traverses a currently failed arc of
// g. The built-in routers skip failed arcs themselves; this is the
// defensive check that keeps failure-blind strategies (UPP's unique
// routing) from lighting a path over a cut fiber.
func crossesFailure(g *digraph.Digraph, p *dipath.Path) bool {
	if g.NumFailedArcs() == 0 {
		return false
	}
	for _, a := range p.Arcs() {
		if g.ArcFailed(a) {
			return true
		}
	}
	return false
}

// ── Fiber cuts and restoration storms ──────────────────────────────────

// FailArc cuts an arc of the session's topology and runs the
// restoration storm over the live paths that crossed it: every affected
// path is torn down, then re-admitted shortest-first — the session's
// routing strategy proposes the primary detour, and a bounded number of
// min-load retries (WithStormRetryBudget) steer around saturation the
// way the retry-alt-route admission strategy does. Paths the storm
// cannot restore under the wavelength budget are parked dark: retained
// with their id, flagged, excluded from λ/π, and revived oldest-first
// by later RestoreArc/Remove sweeps. Cutting an unknown or already-cut
// arc is an error with no state change.
func (s *Session) FailArc(a digraph.ArcID) (StormReport, error) {
	if err := s.net.Topology.FailArc(a); err != nil {
		return StormReport{}, err
	}
	s.failStats.Cuts++
	rep := s.storm(s.affectedByArc(a))
	s.promoteBestEffort()
	s.reviveDark()
	return rep, nil
}

// RestoreArc repairs a cut arc and runs the re-admission sweep: dark
// entries are revived oldest-first under the wavelength budget, and
// best-effort traffic is re-promoted when λ fits again. It returns the
// number of entries revived.
func (s *Session) RestoreArc(a digraph.ArcID) (int, error) {
	if err := s.net.Topology.RestoreArc(a); err != nil {
		return 0, err
	}
	s.failStats.Restores++
	revived := s.reviveDark()
	s.promoteBestEffort()
	return revived, nil
}

// affectedByArc returns the entry indices of the live (lit) paths
// traversing a, through the colorer's per-arc incidence in
// O(affected).
func (s *Session) affectedByArc(a digraph.ArcID) []int32 {
	var idxs []int32
	s.coloring.Dynamic().ForEachOnArc(a, func(slot int) {
		if slot >= 0 && slot < len(s.slotEntry) {
			if idx := s.slotEntry[slot]; idx >= 0 {
				idxs = append(idxs, idx)
			}
		}
	})
	return idxs
}

// storm tears down every affected path at once (the cut killed them
// all) and restores them shortest-first, so the cheap reroutes land
// before the storm's retry budget is spent on the hard ones.
func (s *Session) storm(idxs []int32) StormReport {
	rep := StormReport{Affected: len(idxs)}
	s.failStats.Affected += len(idxs)
	for _, idx := range idxs {
		e := &s.entries[idx]
		// The slot is live by construction (affectedByArc only reports
		// lit entries), so Remove cannot fail here.
		_ = s.coloring.Remove(e.slot)
		s.unbindSlot(e.slot)
		e.slot = -1
		s.trackRemove(e.path)
	}
	sort.Slice(idxs, func(i, j int) bool {
		pi, pj := s.entries[idxs[i]].path, s.entries[idxs[j]].path
		if pi.NumArcs() != pj.NumArcs() {
			return pi.NumArcs() < pj.NumArcs()
		}
		return idxs[i] < idxs[j]
	})
	retry := s.stormRetries
	if retry < 0 {
		retry = 2 * len(idxs) // default budget: two detours per affected path
	}
	budget := retry
	for _, idx := range idxs {
		e := &s.entries[idx]
		if s.restoreEntry(idx, e, &retry) {
			rep.Restored++
			s.failStats.Restored++
		} else {
			s.park(e)
			rep.Parked++
		}
	}
	rep.Retries = budget - retry
	s.enforceBudgetLambda()
	return rep
}

// restoreEntry tries to relight one storm-affected entry: primary route
// through the session's routing strategy, then — while the storm's
// retry budget lasts — one min-load detour around the saturation that
// rejected the primary (the retry-alt-route machinery).
func (s *Session) restoreEntry(idx int32, e *sessionEntry, retry *int) bool {
	var primary *dipath.Path
	if p, err := s.routing.Route(e.req, s.tracker); err == nil && !crossesFailure(s.net.Topology, p) {
		primary = p
		if slot, ok, cerr := s.budgetedAdd(p); cerr == nil && ok {
			s.relight(idx, e, p, slot)
			return true
		}
	}
	if *retry <= 0 {
		return false
	}
	*retry--
	s.failStats.Retries++
	alt, err := s.detourRouter().MinLoadPath(e.req, s.tracker)
	if err != nil || crossesFailure(s.net.Topology, alt) || (primary != nil && alt.Equal(primary)) {
		return false
	}
	if slot, ok, cerr := s.budgetedAdd(alt); cerr == nil && ok {
		s.relight(idx, e, alt, slot)
		return true
	}
	return false
}

// relight commits p as the entry's new route: tracker, slot binding,
// path swap. The entry's live/dark counters are the caller's business.
func (s *Session) relight(idx int32, e *sessionEntry, p *dipath.Path, slot int) {
	s.trackAdd(p)
	e.path = p
	e.slot = slot
	s.bindSlot(slot, idx)
}

// detourRouter lazily builds the session-owned min-load router storms
// and revival sweeps detour through.
func (s *Session) detourRouter() *route.Router {
	if s.stormRouter == nil {
		s.stormRouter = route.NewRouter(s.net.Topology)
	}
	return s.stormRouter
}

// park flags a storm-affected entry dark: it keeps its id and its last
// route for inspection, but leaves the live set (λ, π, IDs, snapshots)
// until a revival sweep brings it back.
func (s *Session) park(e *sessionEntry) {
	e.dark = true
	s.darkSeq++
	e.darkAt = s.darkSeq
	e.noRouteAt = 0
	if e.bestEffort {
		e.bestEffort = false
		s.bestEffortLive--
	}
	s.live--
	s.dark++
	s.failStats.Parked++
}

// ── Revival and promotion sweeps ───────────────────────────────────────

// reviveDark attempts to re-admit every dark entry, oldest-first, and
// returns how many came back. An entry revives when a live route exists
// (primary strategy route or a min-load detour) and passes the budget
// check; the rest stay dark for the next sweep. An entry whose last
// detour found no live dipath is skipped without a search until the
// session graph's topology epoch moves (see reviveOne). Runs after
// RestoreArc, after every Remove (capacity frees may unblock a dark
// entry), and at the end of a storm (paths parked by the storm free
// capacity an older dark entry may fit in).
func (s *Session) reviveDark() int {
	if s.dark == 0 {
		return 0
	}
	revived := 0
	for _, idx := range s.darkOrder() {
		if s.reviveOne(idx, &s.entries[idx]) {
			revived++
		}
	}
	if revived > 0 {
		s.enforceBudgetLambda()
	}
	return revived
}

// darkOrder returns the indices of the dark entries, oldest park first,
// in the session's scratch slice (valid until the next call). The
// darkAt stamps are unique, since darkSeq only grows.
func (s *Session) darkOrder() []int32 {
	refs := s.darkRefs[:0]
	for idx := range s.entries {
		if e := &s.entries[idx]; e.alive && e.dark {
			refs = append(refs, int32(idx))
		}
	}
	slices.SortFunc(refs, func(a, b int32) int {
		return cmp.Compare(s.entries[a].darkAt, s.entries[b].darkAt)
	})
	s.darkRefs = refs
	return refs
}

// reviveOne attempts to relight one dark entry (primary route, then a
// min-load detour — revival sweeps are off the storm's critical path,
// so the detour is not charged to a retry budget). When the detour
// finds no live dipath, the entry is stamped with the session graph's
// topology epoch, and later attempts at the same epoch fail before any
// search: whether a live dipath exists depends on that graph alone,
// every FailArc, RestoreArc and AddArc on it moves the epoch, and the
// min-load search over live arcs is complete. An entry blocked only by
// the budget carries no stamp and is retried on every sweep.
func (s *Session) reviveOne(idx int32, e *sessionEntry) bool {
	epoch := s.net.Topology.TopologyEpoch() + 1
	if e.noRouteAt == epoch {
		return false
	}
	var primary *dipath.Path
	if p, err := s.routing.Route(e.req, s.tracker); err == nil && !crossesFailure(s.net.Topology, p) {
		primary = p
		if slot, ok, cerr := s.budgetedAdd(p); cerr == nil && ok {
			s.unpark(idx, e, p, slot)
			return true
		}
	}
	alt, err := s.detourRouter().MinLoadPath(e.req, s.tracker)
	if _, none := err.(route.ErrNoRoute); none {
		e.noRouteAt = epoch
	}
	if err != nil || crossesFailure(s.net.Topology, alt) || (primary != nil && alt.Equal(primary)) {
		return false
	}
	if slot, ok, cerr := s.budgetedAdd(alt); cerr == nil && ok {
		s.unpark(idx, e, alt, slot)
		return true
	}
	return false
}

// unpark is park's inverse: the entry rejoins the live set on p.
func (s *Session) unpark(idx int32, e *sessionEntry, p *dipath.Path, slot int) {
	e.dark = false
	e.darkAt = 0
	s.dark--
	s.live++
	s.relight(idx, e, p, slot)
	s.failStats.Revived++
}

// promoteBestEffort upgrades the degrade strategy's best-effort entries
// to committed traffic once the live assignment fits the budget again:
// λ ≥ π always, so the sweep first gates on the O(1)-amortised π and
// only then asks the coloring layer to repack under the budget. All
// best-effort entries promote together — once λ ≤ budget the invariant
// holds for the whole live set, there is no per-entry distinction left.
func (s *Session) promoteBestEffort() {
	if s.budget <= 0 || s.bestEffortLive == 0 {
		return
	}
	if s.tracker.Pi() > s.budget {
		return // λ ≥ π > budget: promotion is impossible right now
	}
	if s.coloring.EnsureAtMost(s.budget) > s.budget {
		return
	}
	for idx := range s.entries {
		if e := &s.entries[idx]; e.alive && e.bestEffort {
			e.bestEffort = false
			s.failStats.Promoted++
		}
	}
	s.bestEffortLive = 0
}

// ── Observability ──────────────────────────────────────────────────────

// FailureStats returns the session's cumulative survivability counters.
func (s *Session) FailureStats() FailureStats { return s.failStats }

// DarkLive returns how many entries are currently parked dark.
func (s *Session) DarkLive() int { return s.dark }

// IsDark reports whether the request id is currently parked dark.
func (s *Session) IsDark(id SessionID) (bool, error) {
	e, err := s.lookup(id)
	if err != nil {
		return false, err
	}
	return e.dark, nil
}

// DarkIDs returns the dark entries' ids, oldest park first — the order
// revival sweeps process them in.
func (s *Session) DarkIDs() []SessionID {
	if s.dark == 0 {
		return nil
	}
	refs := s.darkOrder()
	ids := make([]SessionID, len(refs))
	for i, idx := range refs {
		ids[i] = packID(idx, s.entries[idx].gen)
	}
	return ids
}
