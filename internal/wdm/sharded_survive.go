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
	// without a matching snapshot. A storm can reroute, park or revive
	// entries in any of the component's lanes; mark them all for a
	// table rebuild.
	defer func() {
		e.cuts++
		e.stormNanos += time.Since(start).Nanoseconds()
		c.markAllDirty()
		e.publishLocked()
	}()
	var rrep StormReport
	if rs, rla := c.regionArc(ca); rs != nil {
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
// entries revived. Restoring an unknown or uncut arc is an error with
// no state change; after Close it returns ErrEngineClosed.
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
	if err := g.RestoreArc(a); err != nil {
		return 0, err
	}
	c := e.comps[e.arcComp[a]]
	ca := e.arcLoc[a]
	// As in FailArc: the topology mutated, so every return path must
	// account the repair and publish.
	defer func() {
		e.restores++
		c.markAllDirty()
		e.publishLocked()
	}()
	n1 := 0
	if rs, rla := c.regionArc(ca); rs != nil {
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

// crossLaneRevive gives a component's region dark entries a
// revival chance after the overlay lane mutated: overlay parks or
// teardowns free capacity the region sweeps could not see when they
// last ran. Revived paths' deltas fold back into the overlay tracker so
// it stays the exact combined view.
func (c *engineComponent) crossLaneRevive() int {
	revived := 0
	for _, rs := range c.regionShards {
		if rs.sess.DarkLive() > 0 {
			revived += rs.sess.Revive()
		}
	}
	if revived > 0 {
		c.foldRegionDeltas()
	}
	return revived
}

// NumFailedArcsStrong reports how many arcs of the engine topology are
// currently cut, read under the engine mutex (see NumFailedArcs for
// the snapshot form).
func (e *ShardedEngine) NumFailedArcsStrong() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.net.Topology.NumFailedArcs()
}

// DarkLiveStrong returns the number of entries parked dark across all
// lanes, read under the engine mutex (see DarkLive for the snapshot
// form).
func (e *ShardedEngine) DarkLiveStrong() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, sh := range e.shards {
		total += sh.sess.DarkLive()
	}
	return total
}

// IsDarkStrong reports whether the request id is currently parked
// dark, read under the engine mutex (see IsDark for the snapshot
// form).
func (e *ShardedEngine) IsDarkStrong(id ShardedID) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sh, lid, err := e.resolveID(id)
	if err != nil {
		return false, err
	}
	return sh.sess.IsDark(lid)
}
