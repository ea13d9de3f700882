package wdm

import (
	"fmt"
	"time"

	"wavedag/internal/digraph"
)

// This file is the engine half of the survivability layer: fiber cuts
// dispatched to the owning shard, restoration storms sequenced through
// the two-level reconciliation, and the failure counters Stats reports.

// Revive runs a re-admission sweep outside any failure event: dark
// entries are retried oldest-first and best-effort traffic re-promoted,
// exactly as after RestoreArc. It returns how many entries came back.
func (s *Session) Revive() int {
	revived := s.reviveDark()
	s.promoteBestEffort()
	return revived
}

// sweepMayRecolor reports whether a Revive sweep on the session can
// change a live entry's wavelength without reviving any entry. A sweep
// that revives nothing recolors only through the budget: a revival
// attempt under the rollback probe (AddUnderLimit may repack before
// it rejects), or the promotion of best-effort entries (EnsureAtMost
// may repack). Unbudgeted sessions, and cycle-free ones on the
// Theorem-1 precheck, reject a revival before the coloring sees it.
func (s *Session) sweepMayRecolor() bool {
	return s.budget > 0 && (!s.usesPrecheck() || s.bestEffortLive > 0)
}

// FailArc cuts an arc of the engine topology and runs the restoration
// storm on the owning component: the region lane owning the arc (if
// any) storms first, its deltas fold into the overlay tracker, the
// overlay lane storms (its paths may also cross the arc), the overlay
// deltas scatter back, and region dark entries get a cross-lane revival
// chance. Without region lanes only the overlay lane storms. Cutting an
// unknown or already-cut arc is an error with no state change; after
// Close it returns ErrEngineClosed.
func (e *ShardedEngine) FailArc(a digraph.ArcID) (StormReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return StormReport{}, ErrEngineClosed
	}
	g := e.net.Topology
	if a < 0 || int(a) >= g.NumArcs() {
		return StormReport{}, fmt.Errorf("wdm: arc %d out of range [0,%d)", a, g.NumArcs())
	}
	if err := g.FailArc(a); err != nil {
		return StormReport{}, err
	}
	start := time.Now()
	c := e.comps[e.arcComp[a]]
	ca := e.arcLoc[a]
	// The topology mutated above, so every return path from here on —
	// including a storm that errors out mid-way — must account the cut
	// and publish: a lock-free reader must never observe the cut arc
	// without a matching snapshot. The storm reroutes, parks or revives
	// entries only in the lane owning the arc and in the overlay lane;
	// crossLaneRevive marks the other region lanes it changed. The
	// rest keep their tables: the overlay deltas scattered into them
	// move their load trackers, which no table row carries.
	rs, rla := c.regionArc(ca)
	defer func() {
		e.cuts++
		e.stormNanos += time.Since(start).Nanoseconds()
		c.markStormDirty(rs)
		e.publishLocked()
	}()
	var rrep StormReport
	if rs != nil {
		r, err := rs.sess.FailArc(rla)
		if err != nil {
			return StormReport{}, fmt.Errorf("wdm: component %d region: %w", c.idx, err)
		}
		rrep = r
	}
	// Overlay-owned arcs (capacity adds that bridge regions) storm only
	// the overlay lane — no region session knows them.
	c.foldRegionDeltas()
	orep, err := c.overlay.sess.FailArc(ca)
	if err != nil {
		return StormReport{}, fmt.Errorf("wdm: component %d overlay: %w", c.idx, err)
	}
	c.scatterOverlayDeltas()
	c.crossLaneRevive()
	return StormReport{
		Affected: rrep.Affected + orep.Affected,
		Restored: rrep.Restored + orep.Restored,
		Parked:   rrep.Parked + orep.Parked,
		Retries:  rrep.Retries + orep.Retries,
	}, nil
}

// RestoreArc repairs a cut arc and runs the re-admission sweeps on the
// owning component's lanes (region first, overlay after the fold, with
// a cross-lane revival chance at the end). It returns how many dark
// entries revived. Restoring an unknown or uncut arc, or the arc of a
// capacity add a lane refused (see AddArc), is an error with no state
// change; after Close it returns ErrEngineClosed.
func (e *ShardedEngine) RestoreArc(a digraph.ArcID) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrEngineClosed
	}
	g := e.net.Topology
	if a < 0 || int(a) >= g.NumArcs() {
		return 0, fmt.Errorf("wdm: arc %d out of range [0,%d)", a, g.NumArcs())
	}
	if e.refused[a] {
		return 0, fmt.Errorf("wdm: arc %d: a lane refused its capacity add", a)
	}
	if err := g.RestoreArc(a); err != nil {
		return 0, err
	}
	c := e.comps[e.arcComp[a]]
	ca := e.arcLoc[a]
	// As in FailArc: the topology mutated, so every return path must
	// account the repair and publish, rebuilding the tables of the
	// owning lane, the overlay and the lanes crossLaneRevive changed.
	rs, rla := c.regionArc(ca)
	defer func() {
		e.restores++
		c.markStormDirty(rs)
		e.publishLocked()
	}()
	n1 := 0
	if rs != nil {
		n, err := rs.sess.RestoreArc(rla)
		if err != nil {
			return 0, fmt.Errorf("wdm: component %d region: %w", c.idx, err)
		}
		n1 = n
	}
	c.foldRegionDeltas()
	n2, err := c.overlay.sess.RestoreArc(ca)
	if err != nil {
		return 0, fmt.Errorf("wdm: component %d overlay: %w", c.idx, err)
	}
	c.scatterOverlayDeltas()
	return n1 + n2 + c.crossLaneRevive(), nil
}

// Revive runs the re-admission sweep across every lane on demand:
// removals already revive within their own lane, but capacity freed in
// one lane of a component can unblock dark entries of another, and only failure events sweep across lanes — this is the
// explicit trigger. It returns how many entries came back; after Close
// it returns ErrEngineClosed.
func (e *ShardedEngine) Revive() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrEngineClosed
	}
	revived := 0
	for _, c := range e.comps {
		if c.dead {
			continue
		}
		n := c.crossLaneRevive()
		n2 := c.overlay.sess.Revive()
		c.scatterOverlayDeltas()
		revived += n + n2
	}
	for _, c := range e.comps {
		c.markAllDirty() // revival sweeps may touch any lane
	}
	e.publishLocked()
	return revived, nil
}

// markStormDirty flags for a table rebuild the lanes a fiber event
// storms: the region lane owning the arc (nil for an overlay-owned arc
// or a regionless component) and the overlay lane.
func (c *engineComponent) markStormDirty(owner *engineShard) {
	if c.dead {
		return
	}
	if owner != nil {
		owner.dirty = true
	}
	c.overlay.dirty = true
}

// crossLaneRevive gives a component's region dark entries a
// revival chance after the overlay lane mutated: overlay parks or
// teardowns free capacity the region sweeps could not see when they
// last ran. Revived paths' deltas fold back into the overlay tracker so
// it stays the exact combined view. A lane whose sweep may have changed
// its table rows is marked dirty: one that revived an entry, or one
// whose sweep can repack colors without reviving (see
// Session.sweepMayRecolor).
func (c *engineComponent) crossLaneRevive() int {
	revived := 0
	for _, rs := range c.regionShards {
		if rs.sess.DarkLive() > 0 {
			mayRecolor := rs.sess.sweepMayRecolor()
			n := rs.sess.Revive()
			if n > 0 || mayRecolor {
				rs.dirty = true
			}
			revived += n
		}
	}
	if revived > 0 {
		c.foldRegionDeltas()
	}
	return revived
}
