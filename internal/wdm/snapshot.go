package wdm

import (
	"fmt"
	"sync/atomic"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// This file is the engine's lock-free query plane. The mutating API
// (ApplyBatch, FailArc, RestoreArc, Revive, Close) rebuilds an
// immutable EngineSnapshot at every boundary and publishes it through
// an atomic pointer; the read-only API answers from the current
// snapshot without touching the engine mutex, so monitoring readers
// never stall the write path and a write never stalls a reader.
//
// Publication is incremental and double-buffered: only shards a batch
// actually touched rebuild their entry tables (untouched tables are
// shared by reference between consecutive snapshots), and the backing
// arrays of retired snapshots are recycled through pools once the last
// reference drops. Reference counts — one per referencing snapshot plus
// one per pinned reader — gate the recycling, so a reader that holds a
// snapshot across many batches reads stable data for as long as it
// wants; it only delays buffer reuse, never correctness.

// Snapshot entry states.
const (
	snapFree uint8 = iota // slot unoccupied (or recycled under a newer generation)
	snapLit               // live, carrying a wavelength
	snapDark              // parked dark by a restoration storm
)

// snapRow is one request slot's row in a snapshot's per-shard entry
// table: what Path, Wavelength and IsDark need, frozen at publication.
// The path pointer aliases the session's path object, which is
// immutable once committed (reroutes and storms replace the pointer,
// never mutate the path), so sharing it across snapshots is safe.
type snapRow struct {
	gen        uint32
	state      uint8
	wavelength int32 // banded engine wavelength; -1 when dark
	path       *dipath.Path
}

// snapTable is one shard's entry table inside a snapshot. refs counts
// the snapshots currently referencing it — consecutive snapshots share
// the table of a shard no batch touched — and the last drop returns it
// to the engine's pool for the next rebuild.
//
// The table carries its own identifier translations (toGV/toGA) instead
// of reading them off the live shard: live AddArc grows shard
// translation tables copy-on-write, so the slices frozen here stay
// immutable for the snapshot's lifetime while the live shard moves on.
// forward is the shard's relocation map when a component merge retired
// the shard (nil otherwise): lookups chase it to the entry's new home,
// so ids issued before a merge keep resolving against snapshots
// published after it.
type snapTable struct {
	refs    atomic.Int32
	rows    []snapRow
	toGV    []digraph.Vertex
	toGA    []digraph.ArcID
	forward map[SessionID]ShardedID
}

// snapVec is a snapshot's global arc-load vector, pooled and
// reference-counted exactly like snapTable (snapshots published by
// batches that changed no load share the vector outright).
type snapVec struct {
	refs atomic.Int32
	arr  []int
}

// EngineSnapshot is an immutable view of a ShardedEngine frozen at a
// publication boundary: λ, π, live/dark counts, EngineStats with the
// per-lane LaneStats, the arc-load vector, and the entry tables backing
// Path/Wavelength lookups, all from the same boundary, stamped with the
// topology epoch and a monotonic sequence number.
//
// Obtain one with ShardedEngine.Snapshot, which pins it, and call
// Release when done — the pin keeps the backing buffers out of the
// recycling pools, so every accessor stays valid for as long as the
// snapshot is held (a forgotten Release leaks nothing; it only stops
// the buffers from being reused). All accessors are safe for
// concurrent use by any number of goroutines.
type EngineSnapshot struct {
	seq           uint64
	epoch         uint64
	lambda        int
	overlayLambda int
	pi            int
	live          int
	dark          int
	closed        bool
	stats         EngineStats

	refs   atomic.Int64
	loads  *snapVec
	tables []*snapTable
	topo   *digraph.Digraph // the engine topology at publication (see AddArc's copy-on-write)
	eng    *ShardedEngine
}

// Seq returns the snapshot's publication sequence number — strictly
// increasing across publications, so two snapshots with equal Seq are
// the same snapshot.
//
//wavedag:lockfree
func (s *EngineSnapshot) Seq() uint64 { return s.seq }

// TopologyEpoch returns the topology epoch at publication (see
// digraph.TopologyEpoch — FailArc and RestoreArc bump it).
//
//wavedag:lockfree
func (s *EngineSnapshot) TopologyEpoch() uint64 { return s.epoch }

// Closed reports whether the engine was closed at publication.
//
//wavedag:lockfree
func (s *EngineSnapshot) Closed() bool { return s.closed }

// Stats returns the engine stats frozen at publication.
//
//wavedag:lockfree
func (s *EngineSnapshot) Stats() EngineStats { return s.stats }

// Len returns the number of live (lit) requests at publication.
//
//wavedag:lockfree
func (s *EngineSnapshot) Len() int { return s.live }

// DarkLive returns the number of dark-parked entries at publication.
//
//wavedag:lockfree
func (s *EngineSnapshot) DarkLive() int { return s.dark }

// Pi returns the load π at publication.
//
//wavedag:lockfree
func (s *EngineSnapshot) Pi() int { return s.pi }

// NumLambda returns the wavelength count at publication. The error is
// always nil: engine lanes color incrementally, so λ is materialised at
// every publication. It stays in the signature because callers use the
// two-value form.
//
//wavedag:lockfree
func (s *EngineSnapshot) NumLambda() (int, error) { return s.lambda, nil }

// OverlayLambda returns the maximum overlay band across components with
// region lanes at publication (see ShardedEngine.OverlayLambda); the
// error is always nil.
//
//wavedag:lockfree
func (s *EngineSnapshot) OverlayLambda() (int, error) { return s.overlayLambda, nil }

// NumArcs returns the length of the snapshot's arc-load vector.
//
//wavedag:lockfree
func (s *EngineSnapshot) NumArcs() int { return len(s.loads.arr) }

// ArcLoadsInto copies the snapshot's per-arc load vector into dst,
// reusing its capacity (growing only when too small), and returns the
// resized slice.
//
//wavedag:lockfree
//wavedag:allow-alloc (grow path when dst is too small)
func (s *EngineSnapshot) ArcLoadsInto(dst []int) []int {
	src := s.loads.arr
	if cap(dst) < len(src) {
		dst = make([]int, len(src))
	} else {
		dst = dst[:len(src)]
	}
	copy(dst, src)
	return dst
}

// ArcLoads returns a copy of the snapshot's per-arc load vector.
//
//wavedag:lockfree
//wavedag:allow-alloc (delegates to the growing ArcLoadsInto)
func (s *EngineSnapshot) ArcLoads() []int { return s.ArcLoadsInto(nil) }

// lookupRow resolves id against the snapshot's entry tables, with the
// same error shape as the live session lookup. When the id's shard was
// retired by a component merge the table's forward map is chased
// (bounded by the table count — forward chains only ever point at
// younger shards).
//
//wavedag:lockfree
func (s *EngineSnapshot) lookupRow(id ShardedID) (snapRow, *snapTable, error) {
	for hops := 0; ; hops++ {
		if id.Shard < 0 || int(id.Shard) >= len(s.tables) {
			return snapRow{}, nil, fmt.Errorf("wdm: unknown shard %d", id.Shard)
		}
		t := s.tables[id.Shard]
		idx := int64(uint32(id.ID))
		gen := uint32(uint64(id.ID) >> 32)
		if idx < int64(len(t.rows)) {
			if r := t.rows[idx]; r.state != snapFree && r.gen == gen {
				return r, t, nil
			}
		}
		next, ok := t.forward[id.ID]
		if !ok || hops >= len(s.tables) {
			return snapRow{}, nil, fmt.Errorf("wdm: session id %d: %w", id.ID, ErrUnknownSession)
		}
		id = next
	}
}

// translatePath lifts a shard-local path into the topology the snapshot
// was published against, through the table's frozen identifier arrays.
//
//wavedag:lockfree
//wavedag:allow-alloc (the translated path is a fresh object by contract)
func (s *EngineSnapshot) translatePath(t *snapTable, p *dipath.Path) (*dipath.Path, error) {
	if p.NumArcs() == 0 {
		return dipath.FromVertices(s.topo, t.toGV[p.First()])
	}
	arcs := make([]digraph.ArcID, p.NumArcs())
	for i, a := range p.Arcs() {
		arcs[i] = t.toGA[a]
	}
	return dipath.FromArcsTrusted(s.topo, arcs...), nil
}

// Path returns the route the request held at publication, in the
// engine topology's identifiers (for a dark entry, the parked route).
//
//wavedag:lockfree
//wavedag:allow-alloc (the translated path is a fresh object by contract)
func (s *EngineSnapshot) Path(id ShardedID) (*dipath.Path, error) {
	r, t, err := s.lookupRow(id)
	if err != nil {
		return nil, err
	}
	return s.translatePath(t, r.path)
}

// Wavelength returns the banded engine wavelength the request held at
// publication, or -1 when it was parked dark.
//
//wavedag:lockfree
func (s *EngineSnapshot) Wavelength(id ShardedID) (int, error) {
	r, _, err := s.lookupRow(id)
	if err != nil {
		return -1, err
	}
	return int(r.wavelength), nil
}

// IsDark reports whether the request was parked dark at publication.
//
//wavedag:lockfree
func (s *EngineSnapshot) IsDark(id ShardedID) (bool, error) {
	r, _, err := s.lookupRow(id)
	if err != nil {
		return false, err
	}
	return r.state == snapDark, nil
}

// acquire pins s for reading. It fails only when the last reference has
// already dropped — which can only happen to a snapshot that is no
// longer the published one, so callers retry against the current
// pointer.
//
//wavedag:lockfree
//wavedag:refcount
func (s *EngineSnapshot) acquire() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release unpins a snapshot returned by ShardedEngine.Snapshot. The
// last drop (publisher reference included) sends the backing buffers
// back to the recycling pools. Releasing more often than acquired
// panics — the buffers would be recycled under a still-active reader.
//
//wavedag:lockfree
//wavedag:refcount
func (s *EngineSnapshot) Release() {
	n := s.refs.Add(-1)
	if n == 0 {
		s.reclaim()
	} else if n < 0 {
		panic("wdm: EngineSnapshot released more times than acquired")
	}
}

// reclaim recycles the snapshot's backing buffers once no reference is
// left; tables still shared with a newer snapshot stay out until their
// own count drops. Row path pointers are left in place — the pool is
// GC-backed and every rebuild overwrites the rows it hands out.
//
//wavedag:lockfree
//wavedag:refcount
func (s *EngineSnapshot) reclaim() {
	e := s.eng
	if s.loads != nil && s.loads.refs.Add(-1) == 0 {
		e.vecPool.Put(s.loads)
	}
	for _, t := range s.tables {
		if t.refs.Add(-1) == 0 {
			e.tablePool.Put(t)
		}
	}
}

// Snapshot pins and returns the engine's current published snapshot —
// one atomic load plus one atomic increment, no locks. Callers must
// Release it when done. Successive calls may return the same snapshot
// (nothing was published in between) but Seq never moves backwards.
//
//wavedag:lockfree
//wavedag:acquire Release
func (e *ShardedEngine) Snapshot() *EngineSnapshot {
	for {
		if s := e.snap.Load(); s.acquire() {
			return s
		}
	}
}

// ── Lock-free read API ─────────────────────────────────────────────────
//
// Scalar queries read the current snapshot struct directly: the struct
// itself is never recycled (only its arrays are), so a bare atomic
// pointer load suffices — zero locks, zero allocations, zero contention
// with writers. Array-touching queries (ArcLoads, Path, Wavelength,
// IsDark) pin the snapshot around the access. Every answer is exact as
// of the latest publication boundary, i.e. at most one batch stale.

// Stats reports the engine layout, overlay occupancy, per-lane traffic
// shares and failure counters, from the current snapshot.
//
//wavedag:lockfree
func (e *ShardedEngine) Stats() EngineStats { return e.snap.Load().stats }

// Len returns the number of live requests across all shards, from the
// current snapshot.
//
//wavedag:lockfree
func (e *ShardedEngine) Len() int { return e.snap.Load().live }

// Pi returns the load π of the live routing — the maximum over
// components — from the current snapshot. A component's overlay
// tracker holds the exact combined load view (region lanes reconcile
// into it at every batch boundary), so π stays exact under
// sub-sharding.
//
//wavedag:lockfree
func (e *ShardedEngine) Pi() int { return e.snap.Load().pi }

// DarkLive returns the number of entries parked dark across all lanes,
// from the current snapshot.
//
//wavedag:lockfree
func (e *ShardedEngine) DarkLive() int { return e.snap.Load().dark }

// NumFailedArcs reports how many arcs of the engine topology are cut,
// from the current snapshot.
//
//wavedag:lockfree
func (e *ShardedEngine) NumFailedArcs() int { return e.snap.Load().stats.FailedArcs }

// NumLambda returns the number of wavelengths in use (max over
// components; a component counts its region maximum plus its overlay
// band), from the current snapshot. The error is always nil; it stays
// in the signature because callers, wavebench among them, use the
// two-value form.
//
//wavedag:lockfree
func (e *ShardedEngine) NumLambda() (int, error) { return e.snap.Load().lambda, nil }

// OverlayLambda returns the maximum overlay band across components with
// region lanes — the band the aggregation stacks above the region
// maximum (0 when no such overlay lane holds a request) — from the
// current snapshot. The error is always nil.
//
//wavedag:lockfree
func (e *ShardedEngine) OverlayLambda() (int, error) { return e.snap.Load().overlayLambda, nil }

// ArcLoads returns the per-arc load vector over the engine's topology,
// from the current snapshot. Use ArcLoadsInto to reuse a buffer.
//
//wavedag:lockfree
//wavedag:allow-alloc (fresh copy by contract; ArcLoadsInto is the 0-alloc form)
func (e *ShardedEngine) ArcLoads() []int { return e.ArcLoadsInto(nil) }

// ArcLoadsInto copies the current snapshot's per-arc load vector into
// dst, reusing its capacity — the allocation-free form of ArcLoads for
// polling readers.
//
//wavedag:lockfree
func (e *ShardedEngine) ArcLoadsInto(dst []int) []int {
	s := e.Snapshot()
	dst = s.ArcLoadsInto(dst)
	s.Release()
	return dst
}

// Path returns the route of a live request as of the current snapshot,
// in the engine topology's identifiers.
//
//wavedag:lockfree
//wavedag:allow-alloc (the translated path is a fresh object by contract)
func (e *ShardedEngine) Path(id ShardedID) (*dipath.Path, error) {
	s := e.Snapshot()
	// The pin is held through the translation: the table's identifier
	// arrays are frozen per publication, and releasing early would let
	// the pool recycle the table header under the read.
	p, err := s.Path(id)
	s.Release()
	return p, err
}

// Wavelength returns the wavelength of a live request as of the
// current snapshot. Overlay lane wavelengths are reported in the
// component's effective band (region maximum + overlay class) as of the
// same boundary; -1 when parked dark.
//
//wavedag:lockfree
func (e *ShardedEngine) Wavelength(id ShardedID) (int, error) {
	s := e.Snapshot()
	w, err := s.Wavelength(id)
	s.Release()
	return w, err
}

// IsDark reports whether the request is parked dark, as of the current
// snapshot.
//
//wavedag:lockfree
func (e *ShardedEngine) IsDark(id ShardedID) (bool, error) {
	s := e.Snapshot()
	dark, err := s.IsDark(id)
	s.Release()
	return dark, err
}

// ── Publication ────────────────────────────────────────────────────────

// getTable takes a table from the pool resized to n rows.
//
//wavedag:pool-handoff (ownership passes to the published snapshot; reclaim returns it)
func (e *ShardedEngine) getTable(n int) *snapTable {
	t, _ := e.tablePool.Get().(*snapTable)
	if t == nil {
		t = new(snapTable)
	}
	if cap(t.rows) < n {
		t.rows = make([]snapRow, n)
	} else {
		t.rows = t.rows[:n]
	}
	return t
}

// getVec takes an arc-load vector from the pool resized to n.
//
//wavedag:pool-handoff (ownership passes to the published snapshot; reclaim returns it)
func (e *ShardedEngine) getVec(n int) *snapVec {
	v, _ := e.vecPool.Get().(*snapVec)
	if v == nil {
		v = new(snapVec)
	}
	if cap(v.arr) < n {
		v.arr = make([]int, n)
	} else {
		v.arr = v.arr[:n]
	}
	return v
}

// snapDirty reports whether any of the component's shards mutated since
// the last publication. Dead components (absorbed by an AddArc merge)
// have no live lanes left; their retired shards are republished through
// the per-shard dirty flags, not component dirtiness.
func (c *engineComponent) snapDirty() bool {
	if c.dead {
		return false
	}
	if c.overlay.dirty {
		return true
	}
	for _, rs := range c.regionShards {
		if rs.dirty {
			return true
		}
	}
	return false
}

// markAllDirty flags every shard of the component for a table rebuild
// at the next publication — the coarse mark revival sweeps use, since
// they can touch any lane.
func (c *engineComponent) markAllDirty() {
	if c.dead {
		return
	}
	for _, rs := range c.regionShards {
		rs.dirty = true
	}
	c.overlay.dirty = true
}

// refreshCompAggregates recomputes a component's cached snapshot
// aggregates (λ with its banding base, π, live and dark counts) from
// its live sessions. Called under e.mu for components the last interval
// dirtied; clean components keep their cache. Dead components aggregate
// as zero — their traffic lives on in the component that absorbed them.
// The overlay band of a regionless component is its whole λ, not a band
// above regions, so it stays out of the OverlayLambda aggregate.
func (c *engineComponent) refreshCompAggregates() {
	if c.dead {
		c.aggLambda, c.aggRegionBase, c.aggOverlayLambda = 0, 0, 0
		c.aggPi, c.aggLive, c.aggDark = 0, 0, 0
		return
	}
	c.aggPi = c.overlay.sess.Pi()
	c.aggLive, c.aggDark = c.overlay.sess.Len(), c.overlay.sess.DarkLive()
	for _, rs := range c.regionShards {
		c.aggLive += rs.sess.Len()
		c.aggDark += rs.sess.DarkLive()
	}
	c.aggRegionBase = c.regionLambdaMax()
	on := c.overlay.lambda()
	c.aggLambda = c.aggRegionBase + on
	c.aggOverlayLambda = 0
	if len(c.regionShards) > 0 {
		c.aggOverlayLambda = on
	}
}

// publishLocked rebuilds the engine snapshot and publishes it. The
// caller holds e.mu (or, at construction, exclusive access). Only dirty
// shards rebuild their entry tables and only dirty components re-scatter
// their loads and refresh their aggregates; everything else carries
// over from the previous snapshot — tables by shared reference, the
// load vector by copy (or shared outright when nothing moved).
//
//wavedag:refcount
func (e *ShardedEngine) publishLocked() {
	prev := e.snap.Load()
	e.pubSeq++
	next := &EngineSnapshot{
		seq:    e.pubSeq,
		epoch:  e.net.Topology.TopologyEpoch(),
		closed: e.closed,
		topo:   e.net.Topology,
		eng:    e,
		tables: make([]*snapTable, len(e.shards)),
	}
	next.refs.Store(1)

	// Component dirtiness, resolved before the table loop clears the
	// per-shard flags. A dirty component forces its overlay table dirty:
	// overlay rows carry banded wavelengths, and the band's base (the
	// region λ maximum) moves with region growth.
	anyDirty := false
	for i, c := range e.comps {
		dirty := prev == nil || c.snapDirty()
		e.snapCompDirty[i] = dirty
		if dirty {
			anyDirty = true
			c.refreshCompAggregates()
			c.overlay.dirty = true
		}
	}

	// Arc-load vector: shared when nothing moved, otherwise copied from
	// the previous snapshot with dirty components re-scattered over it.
	// A live AddArc can grow the arc space between publications, so the
	// copy clears the tail beyond the previous vector (the growing
	// component is dirty and re-scatters over it anyway — the clear keeps
	// pooled garbage out of arcs no component claims yet).
	if !anyDirty && prev != nil {
		next.loads = prev.loads
		next.loads.refs.Add(1)
	} else {
		vec := e.getVec(e.net.Topology.NumArcs())
		if prev != nil {
			n := copy(vec.arr, prev.loads.arr)
			clear(vec.arr[n:])
		} else {
			clear(vec.arr)
		}
		for i, c := range e.comps {
			if c.dead {
				continue
			}
			if prev != nil && !e.snapCompDirty[i] {
				continue
			}
			// The overlay tracker is the component's combined view.
			c.overlay.sess.tracker.ScatterLoads(vec.arr, c.view.ToGlobalArc)
		}
		vec.refs.Store(1)
		next.loads = vec
	}

	// Entry tables: rebuild dirty shards from their sessions, share the
	// rest with the previous snapshot. Shards born after the previous
	// publication (AddArc merges) have no table to share and
	// are created dirty. A rebuild freezes the shard's current identifier
	// translations and forward map into the table: the engine only ever
	// replaces those fields copy-on-write, so the frozen slices stay
	// immutable for this snapshot's lifetime.
	for i, sh := range e.shards {
		if prev != nil && !sh.dirty && i < len(prev.tables) {
			t := prev.tables[i]
			t.refs.Add(1)
			next.tables[i] = t
			continue
		}
		t := e.getTable(len(sh.sess.entries))
		band := 0
		if sh.kind == shardOverlay {
			band = sh.comp.aggRegionBase
		}
		sh.sess.fillSnapshotRows(t.rows, band)
		t.toGV, t.toGA, t.forward = sh.toGlobalVertex, sh.toGlobalArc, sh.forward
		t.refs.Store(1)
		next.tables[i] = t
		sh.dirty = false
	}

	// Global aggregates from the per-component caches, and the stats
	// block (O(shards) of constant-time counter reads).
	for _, c := range e.comps {
		next.lambda = max(next.lambda, c.aggLambda)
		next.overlayLambda = max(next.overlayLambda, c.aggOverlayLambda)
		next.pi = max(next.pi, c.aggPi)
		next.live += c.aggLive
		next.dark += c.aggDark
	}
	next.stats = e.statsLocked()

	e.snap.Store(next)
	if prev != nil {
		prev.Release() // drop the publisher reference
	}
}
