package wdm

// The adaptive layout plane: the engine observes per-lane pressure at
// batch boundaries and reshapes its own layout — re-banding the
// wavelength budget between the region and overlay lanes, re-splitting
// a region that dominates its component's traffic, and growing the
// topology under live traffic (AddArc). All three re-layouts run under
// the engine mutex at a batch boundary, relocate entries through the
// session adoption primitives (see session.go), leave retired lanes
// behind with immutable forward maps so issued ShardedIDs keep
// resolving, and publish a fresh snapshot so lock-free readers never
// observe a half-moved layout.

import (
	"fmt"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/route"
)

// AdaptiveConfig tunes the adaptive layout plane (see
// WithAdaptiveBanding and WithRegionResplit). The zero value is not
// valid; start from DefaultAdaptiveConfig.
type AdaptiveConfig struct {
	// Alpha is the EWMA smoothing factor of the pressure gauges
	// (occupancy, saturation, event share), in (0, 1]. Higher reacts
	// faster; lower needs more consecutive batches of evidence.
	Alpha float64

	// HysteresisBatches gates every re-layout twice over: a band shift
	// needs this many consecutive batches of one-sided pressure, and no
	// component re-lays out twice within this many batches (the
	// cooldown window shared with re-splitting).
	HysteresisBatches int

	// BandStep is how many wavelengths one re-banding moves between the
	// region band and the overlay slice.
	BandStep int

	// HighWater and LowWater are the pressure thresholds of the banding
	// gate: the growing side must sustain pressure >= HighWater while
	// the shrinking side sits <= LowWater. 0 < LowWater < HighWater <= 1.
	HighWater float64
	LowWater  float64

	// ResplitShare is the event-share EWMA a single region lane must
	// sustain before it is re-split, in (0, 1].
	ResplitShare float64

	// MinRegionArcs is the smallest region (in arcs) re-splitting will
	// consider carving.
	MinRegionArcs int
}

// DefaultAdaptiveConfig returns the tuning the adaptive plane was
// calibrated with (see BENCH_PR10.json).
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Alpha:             0.3,
		HysteresisBatches: 8,
		BandStep:          1,
		HighWater:         0.85,
		LowWater:          0.4,
		ResplitShare:      0.6,
		MinRegionArcs:     8,
	}
}

func (cfg AdaptiveConfig) validate() error {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return fmt.Errorf("wdm: adaptive alpha must be in (0,1], got %g", cfg.Alpha)
	}
	if cfg.HysteresisBatches < 1 {
		return fmt.Errorf("wdm: adaptive hysteresis must be >= 1 batch, got %d", cfg.HysteresisBatches)
	}
	if cfg.BandStep < 1 {
		return fmt.Errorf("wdm: adaptive band step must be >= 1, got %d", cfg.BandStep)
	}
	if cfg.LowWater <= 0 || cfg.HighWater <= cfg.LowWater || cfg.HighWater > 1 {
		return fmt.Errorf("wdm: adaptive watermarks need 0 < low < high <= 1, got low=%g high=%g", cfg.LowWater, cfg.HighWater)
	}
	if cfg.ResplitShare <= 0 || cfg.ResplitShare > 1 {
		return fmt.Errorf("wdm: adaptive re-split share must be in (0,1], got %g", cfg.ResplitShare)
	}
	if cfg.MinRegionArcs < 2 {
		return fmt.Errorf("wdm: adaptive min region arcs must be >= 2, got %d", cfg.MinRegionArcs)
	}
	return nil
}

// WithAdaptiveBanding turns on adaptive budget banding: at batch
// boundaries the engine shifts wavelengths between a two-level
// component's region band and its overlay slice, following the lanes'
// pressure gauges behind a hysteresis gate (see AdaptiveConfig). The
// regions-max + overlay-offset aggregation is preserved through every
// shift — a component's λ can never exceed the engine budget — so the
// option requires WithEngineWavelengthBudget.
func WithAdaptiveBanding() ShardedOption {
	return func(c *shardedConfig) error {
		c.adaptive = true
		return nil
	}
}

// WithRegionResplit turns on hot-region re-splitting: when one region
// lane sustains more than AdaptiveConfig.ResplitShare of its
// component's events, the engine re-partitions that region at a batch
// boundary via a balanced arc cut, relocating its lightpaths into the
// two halves (paths the cut severs escalate to the overlay lane, parked
// dark if the overlay band cannot hold them). Works with or without a
// wavelength budget.
func WithRegionResplit() ShardedOption {
	return func(c *shardedConfig) error {
		c.resplit = true
		return nil
	}
}

// WithAdaptiveConfig overrides the adaptive plane's tuning knobs
// (default DefaultAdaptiveConfig). It configures but does not enable:
// combine with WithAdaptiveBanding and/or WithRegionResplit.
func WithAdaptiveConfig(cfg AdaptiveConfig) ShardedOption {
	return func(c *shardedConfig) error {
		if err := cfg.validate(); err != nil {
			return err
		}
		c.acfg = cfg
		c.acfgSet = true
		return nil
	}
}

// AdaptiveBanding reports whether adaptive budget banding is on.
func (e *ShardedEngine) AdaptiveBanding() bool { return e.adaptive }

// RegionResplit reports whether hot-region re-splitting is on.
func (e *ShardedEngine) RegionResplit() bool { return e.resplit }

// resplitSampleFloor dampens the event-share EWMA on small batches:
// an update from a batch of tot events is weighted tot/(tot+floor),
// so single-op batches (raw share 1.0 for whoever got the event) no
// longer masquerade as sustained pressure.
const resplitSampleFloor = 8

// laneGauge is the pressure of one lane: the worse of its budget
// occupancy and its admission saturation EWMAs.
func laneGauge(sh *engineShard) float64 {
	if sh.satEW > sh.occEW {
		return sh.satEW
	}
	return sh.occEW
}

// adaptLocked is the adaptive plane's batch-boundary tick, run inside
// applyLocked just before publication: refresh every live lane's
// pressure gauges from the batch's admission deltas, then give each
// component with region lanes its re-split and re-band decisions
// (regionless components have no band to shift and no region to
// split). The caller holds e.mu.
func (e *ShardedEngine) adaptLocked() {
	a := e.acfg.Alpha
	for _, sh := range e.shards {
		if sh.retired {
			continue
		}
		st := sh.sess.AdmissionStats()
		dreq := st.Requests - sh.prevReq
		drej := st.Rejected - sh.prevRej
		sh.prevReq, sh.prevRej = st.Requests, st.Rejected
		if dreq > 0 {
			sh.satEW += a * (float64(drej)/float64(dreq) - sh.satEW)
		} else {
			sh.satEW -= a * sh.satEW // idle lanes cool off
		}
		// Occupancy is λ over the lane budget, only meaningful under a
		// budget.
		if b := sh.sess.Budget(); b > 0 {
			sh.occEW += a * (float64(sh.lambda())/float64(b) - sh.occEW)
		}
	}
	for _, c := range e.comps {
		if c.dead || len(c.regionShards) == 0 {
			continue
		}
		if e.resplit {
			e.maybeResplit(c)
		}
		if e.adaptive {
			e.maybeReband(c)
		}
	}
}

// maybeReband applies one adaptive band shift to a two-level component
// when the hysteresis gate opens: the growing side must have sustained
// pressure >= HighWater while the shrinking side sat <= LowWater for
// HysteresisBatches consecutive batches, outside the component's
// re-layout cooldown window. Shrinking a band is additionally gated on
// the current live λ of the shrinking lanes fitting the smaller band,
// so the λ <= budget invariant survives the shift without evictions.
func (e *ShardedEngine) maybeReband(c *engineComponent) {
	cfg := e.acfg
	regP := 0.0
	for _, rs := range c.regionShards {
		if p := laneGauge(rs); p > regP {
			regP = p
		}
	}
	ovP := laneGauge(c.overlay)
	if ovP >= cfg.HighWater && regP <= cfg.LowWater {
		c.growPend++
	} else {
		c.growPend = 0
	}
	if regP >= cfg.HighWater && ovP <= cfg.LowWater {
		c.shrinkPend++
	} else {
		c.shrinkPend = 0
	}
	if e.batchSerial-c.lastLayout < uint64(cfg.HysteresisBatches) {
		return
	}
	newSlice := c.overlaySlice
	switch {
	case c.growPend >= cfg.HysteresisBatches:
		newSlice += cfg.BandStep
	case c.shrinkPend >= cfg.HysteresisBatches:
		newSlice -= cfg.BandStep
	default:
		return
	}
	// The invariant bounds: the overlay keeps at least one wavelength,
	// the regions keep at least one.
	if newSlice < 1 {
		newSlice = 1
	}
	if newSlice > e.budget-1 {
		newSlice = e.budget - 1
	}
	if newSlice == c.overlaySlice {
		c.growPend, c.shrinkPend = 0, 0
		return
	}
	regionBudget := e.budget - newSlice
	if newSlice > c.overlaySlice {
		// Regions shrink: every region lane's live λ must fit the new
		// region band.
		if c.regionLambdaMax() > regionBudget {
			c.growPend = 0
			return
		}
	} else {
		// Overlay shrinks: its live λ must fit the new slice.
		if c.overlay.lambda() > newSlice {
			c.shrinkPend = 0
			return
		}
	}
	for _, rs := range c.regionShards {
		rs.sess.setBudget(regionBudget)
		rs.dirty = true
	}
	c.overlay.sess.setBudget(newSlice)
	c.overlay.dirty = true
	c.overlaySlice = newSlice
	c.lastLayout = e.batchSerial
	c.growPend, c.shrinkPend = 0, 0
	e.rebands++
}

// maybeResplit updates a two-level component's per-lane event-share
// EWMAs from this batch's traffic and re-splits the hottest region when
// it has sustained more than ResplitShare of the component's events,
// subject to the size floor and the re-layout cooldown.
func (e *ShardedEngine) maybeResplit(c *engineComponent) {
	var tot uint64
	for _, rs := range c.regionShards {
		tot += rs.events - rs.prevEvents
	}
	tot += c.overlay.events - c.overlay.prevEvents
	// Weight the EWMA update by the batch's sample size: a lane that
	// received the only event of a 1-op batch has a raw share of 1.0,
	// which says nothing about sustained pressure. Scaling α by
	// tot/(tot+resplitSampleFloor) makes trickle batches move the
	// share estimate proportionally less, so only sustained batched
	// traffic can open the re-split gate.
	a := e.acfg.Alpha * float64(tot) / float64(tot+resplitSampleFloor)
	hot, hotShare := -1, 0.0
	for ri, rs := range c.regionShards {
		var shr float64
		if tot > 0 {
			shr = float64(rs.events-rs.prevEvents) / float64(tot)
		}
		rs.evShareEW += a * (shr - rs.evShareEW)
		rs.prevEvents = rs.events
		if rs.evShareEW > hotShare {
			hot, hotShare = ri, rs.evShareEW
		}
	}
	var ovShr float64
	if tot > 0 {
		ovShr = float64(c.overlay.events-c.overlay.prevEvents) / float64(tot)
	}
	c.overlay.evShareEW += a * (ovShr - c.overlay.evShareEW)
	c.overlay.prevEvents = c.overlay.events
	if tot == 0 || hot < 0 || hotShare < e.acfg.ResplitShare {
		return
	}
	if e.batchSerial-c.lastLayout < uint64(e.acfg.HysteresisBatches) {
		return
	}
	g := c.regions.Views[hot].G
	if g.NumVertices() < 4 || g.NumArcs() < e.acfg.MinRegionArcs {
		return
	}
	e.resplitComp(c, hot)
}

// resplitComp re-partitions region ri of a two-level component via a
// balanced arc cut and relocates its lightpaths: paths confined to one
// half are adopted by the half's new lane; paths the cut severs
// escalate to the overlay lane (their folded loads are first undone so
// the overlay tracker stays the exact combined view), parked dark when
// a band rejects them. The old lane retires with an immutable forward
// map; region lanes of the component escalate ErrNoRoute adds to the
// overlay from here on, because the synthetic halves are no longer
// biconnected blocks and region-confined routability is no longer
// guaranteed. The relocation runs with delta hooks disabled — adoption
// is accounted directly — and a mirror pass rebuilds the two new region
// trackers' view of overlay-owned loads.
func (e *ShardedEngine) resplitComp(c *engineComponent, ri int) {
	old := c.regionShards[ri]
	g := c.regions.Views[ri].G
	// Order the region for the cut. On an acyclic view use a
	// topological order: every vertex of a directed u→v path ranks
	// between u and v in any such order, so a prefix/suffix cut never
	// severs a path whose endpoints sit on one side — in-side pairs
	// stay in-side routable after the split instead of escalating to
	// the serialised overlay. Views with directed cycles fall back to
	// an undirected BFS order from local vertex 0, which keeps the
	// prefix connected and the cut small on mesh-like blocks.
	n := g.NumVertices()
	order := make([]digraph.Vertex, 0, n)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.InArcs(digraph.Vertex(v)))
	}
	queue := make([]digraph.Vertex, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, digraph.Vertex(v))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, aID := range g.OutArcs(v) {
			h := g.Arc(aID).Head
			if indeg[h]--; indeg[h] == 0 {
				queue = append(queue, h)
			}
		}
	}
	if len(order) < n {
		order, queue = order[:0], queue[:0]
		seen := make([]bool, n)
		queue = append(queue, 0)
		seen[0] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, aID := range g.OutArcs(v) {
				if w := g.Arc(aID).Head; !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
			for _, aID := range g.InArcs(v) {
				if w := g.Arc(aID).Tail; !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	// Sweep the order from the far end, growing side B until it holds
	// about half the region's arcs: an arc is B-internal once both its
	// endpoints are in B, so the sweep is the balanced arc cut the
	// re-split wants (vertex halving alone can leave B arcless when the
	// far half is all frontier vertices).
	sideB := make([]bool, n)
	total := g.NumArcs()
	arcsB, nB := 0, 0
	for i := len(order) - 1; i >= 1 && 2*arcsB < total && nB < n-1; i-- {
		v := order[i]
		sideB[v] = true
		nB++
		for _, aID := range g.OutArcs(v) {
			if h := g.Arc(aID).Head; h != v && sideB[h] {
				arcsB++
			}
		}
		for _, aID := range g.InArcs(v) {
			if w := g.Arc(aID).Tail; w != v && sideB[w] {
				arcsB++
			}
		}
	}
	if arcsB == 0 || arcsB == total {
		// No bipartition along this order separates the arcs (star-like
		// region): leave the layout alone until the cooldown expires.
		c.lastLayout = e.batchSerial
		return
	}
	newRegs, err := c.regions.SplitRegion(ri, sideB)
	if err != nil {
		c.lastLayout = e.batchSerial // cooldown: don't retry every batch
		return
	}
	newIdx := int32(newRegs.NumRegions() - 1)

	// Classify the old lane's paths against the new partition. A path
	// is severed when its arcs land on both sides; a zero-arc path
	// follows its vertex's membership (side A preferred for boundary
	// vertices — both halves hold them).
	sideOf := func(p *dipath.Path) (int32, bool) {
		if p.NumArcs() == 0 {
			cv := old.toCompVertex[p.First()]
			side := int32(ri)
			for _, m := range newRegs.RegionsOf(cv) {
				if m.Region == int32(ri) {
					return int32(ri), false
				}
				if m.Region == newIdx {
					side = newIdx
				}
			}
			return side, false
		}
		arcs := p.Arcs()
		first := newRegs.ArcRegion[old.toCompArc[arcs[0]]]
		for _, la := range arcs[1:] {
			if newRegs.ArcRegion[old.toCompArc[la]] != first {
				return first, true
			}
		}
		return first, false
	}
	lit, severed := 0, 0
	for idx := range old.sess.entries {
		en := &old.sess.entries[idx]
		if !en.alive || en.dark {
			continue
		}
		lit++
		if _, mixed := sideOf(en.path); mixed {
			severed++
		}
	}
	if 2*severed > lit {
		// The cut would push the majority of the region's traffic onto
		// the serialized overlay lane — worse than the hot region.
		c.lastLayout = e.batchSerial
		return
	}

	regionBudget := 0
	if e.budget > 0 {
		regionBudget = e.budget - c.overlaySlice
	}
	sessA, errA := e.newLaneSession(newRegs.Views[ri].G, regionBudget,
		fmt.Sprintf("component %d region %d (re-split)", c.idx, ri))
	sessB, errB := e.newLaneSession(newRegs.Views[newIdx].G, regionBudget,
		fmt.Sprintf("component %d region %d (re-split)", c.idx, newIdx))
	if errA != nil || errB != nil {
		c.lastLayout = e.batchSerial
		return
	}
	shA := e.addRegionShard(c, newRegs.Views[ri], sessA)
	shB := e.addRegionShard(c, newRegs.Views[newIdx], sessB)

	// Relocate with every delta hook silent: adoption accounts trackers
	// directly, and the batch reconciliation must not see relocation as
	// traffic. The overlay tracker keeps its folded copy of confined
	// paths (they stay in the component, on the same component arcs);
	// severed paths are un-folded before re-admission against the
	// overlay band, and a confined path a new half's colorer cannot
	// seat parks dark (un-folded too — dark holds no load anywhere).
	c.overlay.sess.setPathDeltaHook(nil)
	ot := c.overlay.sess.tracker
	unfold := func(p *dipath.Path) {
		for _, la := range p.Arcs() {
			ot.RemoveArc(old.toCompArc[la])
		}
	}
	toLocal := func(t *engineShard, p *dipath.Path) *dipath.Path {
		if p.NumArcs() == 0 {
			cv := old.toCompVertex[p.First()]
			for _, m := range newRegs.RegionsOf(cv) {
				if (t == shA && m.Region == int32(ri)) || (t == shB && m.Region == newIdx) {
					np, verr := dipath.FromVertices(t.sess.net.Topology, m.Local)
					if verr == nil {
						return np
					}
				}
			}
			return nil
		}
		arcs := make([]digraph.ArcID, p.NumArcs())
		for i, la := range p.Arcs() {
			arcs[i] = newRegs.LocalArc[old.toCompArc[la]]
		}
		return dipath.FromArcsTrusted(t.sess.net.Topology, arcs...)
	}
	forward := make(map[SessionID]ShardedID, old.sess.Len()+old.sess.DarkLive())
	for idx := range old.sess.entries {
		en := &old.sess.entries[idx]
		if !en.alive {
			continue
		}
		oldID := packID(int32(idx), en.gen)
		if en.path == nil {
			// A parked entry without a route: keep it dark on the overlay
			// lane (component vertices are always addressable there).
			req := route.Request{Src: old.toCompVertex[en.req.Src], Dst: old.toCompVertex[en.req.Dst]}
			forward[oldID] = ShardedID{Shard: c.overlay.idx, ID: c.overlay.sess.adoptDark(req, nil)}
			continue
		}
		side, mixed := sideOf(en.path)
		if mixed {
			cp, cerr := old.compLocalPath(en.path)
			if en.dark {
				if cerr != nil {
					cp = nil
				}
				var req route.Request
				if cp != nil {
					req = route.Request{Src: cp.First(), Dst: cp.Last()}
				} else {
					req = route.Request{Src: old.toCompVertex[en.req.Src], Dst: old.toCompVertex[en.req.Dst]}
				}
				forward[oldID] = ShardedID{Shard: c.overlay.idx, ID: c.overlay.sess.adoptDark(req, cp)}
				continue
			}
			unfold(en.path)
			req := route.Request{Src: cp.First(), Dst: cp.Last()}
			if nid, ok, aerr := c.overlay.sess.adoptPath(req, cp, en.bestEffort); aerr == nil && ok {
				forward[oldID] = ShardedID{Shard: c.overlay.idx, ID: nid}
			} else {
				forward[oldID] = ShardedID{Shard: c.overlay.idx, ID: c.overlay.sess.adoptDark(req, cp)}
			}
			continue
		}
		t := shA
		if side == newIdx {
			t = shB
		}
		np := toLocal(t, en.path)
		if np == nil {
			req := route.Request{Src: old.toCompVertex[en.req.Src], Dst: old.toCompVertex[en.req.Dst]}
			forward[oldID] = ShardedID{Shard: c.overlay.idx, ID: c.overlay.sess.adoptDark(req, nil)}
			continue
		}
		req := route.Request{Src: np.First(), Dst: np.Last()}
		if en.dark {
			forward[oldID] = ShardedID{Shard: t.idx, ID: t.sess.adoptDark(req, np)}
			continue
		}
		if nid, ok, aerr := t.sess.adoptPath(req, np, en.bestEffort); aerr == nil && ok {
			forward[oldID] = ShardedID{Shard: t.idx, ID: nid}
		} else {
			unfold(en.path) // going dark: its folded loads leave the combined view
			forward[oldID] = ShardedID{Shard: t.idx, ID: t.sess.adoptDark(req, np)}
		}
	}
	old.sess.drainRetire()
	old.retired = true
	old.forward = forward
	old.dirty = true

	// Commit the new partition and lane layout.
	c.regions = newRegs
	c.regionShards[ri] = shA
	c.regionShards = append(c.regionShards, shB)

	// Mirror pass: the new halves' trackers must see the overlay-owned
	// loads on their arcs (min-load routing inside a region consults
	// them), exactly what scatterOverlayDeltas maintains from here on.
	for idx := range c.overlay.sess.entries {
		en := &c.overlay.sess.entries[idx]
		if !en.alive || en.dark || en.path == nil {
			continue
		}
		for _, ca := range en.path.Arcs() {
			switch newRegs.ArcRegion[ca] {
			case int32(ri):
				shA.sess.tracker.AddArc(newRegs.LocalArc[ca])
			case newIdx:
				shB.sess.tracker.AddArc(newRegs.LocalArc[ca])
			}
		}
	}

	// Re-arm the delta hooks: the new lanes log like any region lane,
	// the overlay resumes logging for scatter.
	shA.logDeltas()
	shB.logDeltas()
	c.overlay.logDeltas()
	c.overlay.dirty = true

	c.escalate = true
	c.lastLayout = e.batchSerial
	c.growPend, c.shrinkPend = 0, 0
	e.resplits++
}

// AddArc adds a directed arc to a running engine's topology and
// re-shards incrementally: an arc inside one region joins that region's
// lane; an arc between regions of one component becomes overlay-owned
// (no region lane knows it, and region lanes escalate ErrNoRoute adds
// to the overlay from then on, since the new arc may open cross-region
// routes); an arc inside a component without region lanes joins its
// overlay lane; an arc between two components merges them into one
// component without region lanes, relocating every lightpath of both
// into a fresh overlay lane (handles issued for them keep resolving
// through forward maps).
//
// The engine operates on a private copy of the topology from the first
// AddArc on: the Network the engine was built from is never mutated,
// and snapshots published earlier keep their own captured topology, so
// pinned readers are unaffected. FailArc/RestoreArc keep operating on
// the engine's current (private) topology.
//
// If a lane's routing strategy refuses the grown graph (precomputed
// tables such as UPP's can become invalid), the new arc is added but
// immediately failed — the engine stays consistent on the old effective
// topology — and an error is returned; RestoreArc can bring the arc up
// later if the strategy permits. After Close, AddArc returns
// ErrEngineClosed.
func (e *ShardedEngine) AddArc(tail, head digraph.Vertex) (digraph.ArcID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return -1, ErrEngineClosed
	}
	nv := len(e.label)
	if tail < 0 || head < 0 || int(tail) >= nv || int(head) >= nv {
		return -1, fmt.Errorf("wdm: add arc: vertex out of range")
	}
	// Clone-on-add: mutating a shared topology in place would corrupt
	// published snapshots (their path translation reads the captured
	// graph) and the caller's Network.
	topo := e.net.Topology.Clone()
	ga, err := topo.AddArc(tail, head)
	if err != nil {
		return -1, err
	}
	defer e.publishLocked()
	ci, cj := e.label[tail], e.label[head]
	if ci != cj {
		if err := e.mergeComps(topo, ga, ci, cj); err != nil {
			return -1, err // the clone is discarded; the engine is untouched
		}
		e.arcAdds++
		return ga, nil
	}

	// Same component: commit the topology swap, then grow the views in
	// place (appends never disturb published slice headers — snapshot
	// tables froze their own headers at publication).
	e.net = &Network{Topology: topo, Wavelengths: e.net.Wavelengths}
	c := e.comps[ci]
	lt, lh := e.localV[tail], e.localV[head]
	la, err := c.view.G.AddArc(lt, lh)
	if err != nil {
		return -1, err // unreachable: the global add validated the same pair
	}
	c.view.ToGlobalArc = append(c.view.ToGlobalArc, ga)
	e.arcComp = append(e.arcComp, c.idx)
	e.arcLoc = append(e.arcLoc, la)
	var gerr error
	c.overlay.toGlobalArc = c.view.ToGlobalArc
	if c.regions != nil {
		if r, ru, rh, ok := c.regions.CommonRegionNewest(lt, lh); ok {
			// Both endpoints share a region: the arc joins its lane, and
			// region-confined routing may now use it.
			rv := &c.regions.Views[r]
			rla, rerr := rv.G.AddArc(ru, rh)
			if rerr != nil {
				return -1, rerr // unreachable, as above
			}
			rv.ToGlobalArc = append(rv.ToGlobalArc, la)
			rsh := c.regionShards[r]
			rsh.toCompArc = rv.ToGlobalArc
			rsh.toGlobalArc = append(rsh.toGlobalArc, ga)
			c.regions.ArcRegion = append(c.regions.ArcRegion, r)
			c.regions.LocalArc = append(c.regions.LocalArc, rla)
			gerr = rsh.sess.growTopology()
			rsh.dirty = true
		} else {
			// No common region: the arc bridges regions and is owned by the
			// overlay lane alone. It may merge blocks, so region views turn
			// pessimistic about routability — escalate their ErrNoRoute adds.
			c.regions.ArcRegion = append(c.regions.ArcRegion, -1)
			c.regions.LocalArc = append(c.regions.LocalArc, -1)
			c.escalate = true
		}
	}
	if gerr == nil {
		gerr = c.overlay.sess.growTopology()
	}
	c.overlay.dirty = true
	if gerr != nil {
		// Compensate: a lane cannot run on the grown graph. Fail the new
		// arc everywhere — every lane keeps working on the old effective
		// topology (routing scratch is per-vertex and no vertex was
		// added, so un-rebuilt routing states stay safe).
		_ = topo.FailArc(ga)
		_ = c.view.G.FailArc(la)
		if rs, rla := c.regionArc(la); rs != nil {
			_ = rs.sess.net.Topology.FailArc(rla)
		}
		return -1, fmt.Errorf("wdm: add arc: %w", gerr)
	}
	e.arcAdds++
	return ga, nil
}

// mergeComps joins two components into one component without region
// lanes over the grown topology: the merged view lists lo's vertices
// and arcs, then hi's, then the bridge arc (failed flags replicated), a
// fresh overlay lane is opened over it with the full engine budget —
// the only fallible step, done before any engine state mutates — and
// every entry of both old components is relocated into it. The dissolved component keeps its slot, marked
// dead, so component and shard indexing stays stable.
func (e *ShardedEngine) mergeComps(topo *digraph.Digraph, ga digraph.ArcID, ci, cj int32) error {
	lo, hi := e.comps[ci], e.comps[cj]
	if hi.idx < lo.idx {
		lo, hi = hi, lo
	}
	g := &digraph.Digraph{}
	gvs := make([]digraph.Vertex, 0, lo.view.G.NumVertices()+hi.view.G.NumVertices())
	for _, src := range [2]*engineComponent{lo, hi} {
		for lv := 0; lv < src.view.G.NumVertices(); lv++ {
			g.AddVertex(src.view.G.Label(digraph.Vertex(lv)))
			gvs = append(gvs, src.view.ToGlobalVertex[lv])
		}
	}
	off := digraph.Vertex(lo.view.G.NumVertices())
	gas := make([]digraph.ArcID, 0, lo.view.G.NumArcs()+hi.view.G.NumArcs()+1)
	addAll := func(src *engineComponent, voff digraph.Vertex) {
		for _, a := range src.view.G.Arcs() {
			la := g.MustAddArc(a.Tail+voff, a.Head+voff)
			if src.view.G.ArcFailed(a.ID) {
				_ = g.FailArc(la)
			}
			gas = append(gas, src.view.ToGlobalArc[a.ID])
		}
	}
	addAll(lo, 0)
	addAll(hi, off)
	mloc := func(gv digraph.Vertex) digraph.Vertex {
		if e.comps[e.label[gv]] == lo {
			return e.localV[gv]
		}
		return off + e.localV[gv]
	}
	bridge := topo.Arc(ga)
	g.MustAddArc(mloc(bridge.Tail), mloc(bridge.Head))
	gas = append(gas, ga)
	sess, err := e.newLaneSession(g, e.budget, fmt.Sprintf("component %d overlay (merge of %d+%d)", lo.idx, lo.idx, hi.idx))
	if err != nil {
		return err
	}

	// Commit: from here on nothing fails.
	e.net = &Network{Topology: topo, Wavelengths: e.net.Wavelengths}
	nc := &engineComponent{
		idx:          lo.idx,
		view:         digraph.ComponentView{G: g, ToGlobalVertex: gvs, ToGlobalArc: gas},
		overlaySlice: e.overlaySlice,
	}
	nc.overlay = e.addShard(&engineShard{
		kind: shardOverlay, comp: nc, sess: sess,
		toGlobalVertex: gvs,
		toGlobalArc:    gas,
	})
	e.comps[lo.idx] = nc
	hi.dead = true
	hi.refreshCompAggregates() // dead: aggregates as zero
	for lv, gv := range gvs {
		e.label[gv] = nc.idx
		e.localV[gv] = digraph.Vertex(lv)
	}
	e.arcComp = append(e.arcComp, nc.idx)
	e.arcLoc = append(e.arcLoc, 0)
	for la, gaa := range gas {
		e.arcComp[gaa] = nc.idx
		e.arcLoc[gaa] = digraph.ArcID(la)
	}
	for _, src := range [2]*engineComponent{lo, hi} {
		for _, rs := range src.regionShards {
			e.relocateShard(rs, nc.overlay)
		}
		e.relocateShard(src.overlay, nc.overlay)
	}
	return nil
}

// relocateShard moves every entry of sh into the target lane t and
// retires sh behind an immutable forward map. The translation goes
// through the engine's freshly remapped global tables, so it is only
// valid when t is an overlay lane whose local identifiers are the
// engine's current component-local identifiers (the merge path). Lightpaths a
// band or colorer cannot seat in t park dark there instead of being
// dropped.
func (e *ShardedEngine) relocateShard(sh *engineShard, t *engineShard) {
	fwd := make(map[SessionID]ShardedID, sh.sess.Len()+sh.sess.DarkLive())
	for idx := range sh.sess.entries {
		en := &sh.sess.entries[idx]
		if !en.alive {
			continue
		}
		oldID := packID(int32(idx), en.gen)
		var np *dipath.Path
		if en.path != nil {
			if en.path.NumArcs() == 0 {
				np, _ = dipath.FromVertices(t.sess.net.Topology, e.localV[sh.toGlobalVertex[en.path.First()]])
			} else {
				arcs := make([]digraph.ArcID, en.path.NumArcs())
				for i, a := range en.path.Arcs() {
					arcs[i] = e.arcLoc[sh.toGlobalArc[a]]
				}
				np = dipath.FromArcsTrusted(t.sess.net.Topology, arcs...)
			}
		}
		var req route.Request
		if np != nil {
			req = route.Request{Src: np.First(), Dst: np.Last()}
		} else {
			req = route.Request{
				Src: e.localV[sh.toGlobalVertex[en.req.Src]],
				Dst: e.localV[sh.toGlobalVertex[en.req.Dst]],
			}
		}
		if en.dark || np == nil {
			fwd[oldID] = ShardedID{Shard: t.idx, ID: t.sess.adoptDark(req, np)}
			continue
		}
		if nid, ok, err := t.sess.adoptPath(req, np, en.bestEffort); err == nil && ok {
			fwd[oldID] = ShardedID{Shard: t.idx, ID: nid}
		} else {
			fwd[oldID] = ShardedID{Shard: t.idx, ID: t.sess.adoptDark(req, np)}
		}
	}
	sh.sess.drainRetire()
	sh.retired = true
	sh.forward = fwd
	sh.dirty = true
}
