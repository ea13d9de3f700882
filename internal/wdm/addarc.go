package wdm

// Live capacity adds: AddArc grows the topology of a running engine.
// An add runs under the engine mutex between batches; when it merges two
// components it relocates their entries through the session adoption
// primitives (see session.go) and leaves the retired lanes behind with
// immutable forward maps, so issued ShardedIDs keep resolving. Every add
// publishes a fresh snapshot, so lock-free readers never observe a
// half-grown layout.

import (
	"fmt"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/route"
)

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
// failed for good — the engine stays consistent on the old effective
// topology, and RestoreArc refuses the arc — and an error is returned.
// After Close, AddArc returns ErrEngineClosed.
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
		if r, ru, rh, ok := c.regions.CommonRegion(lt, lh); ok {
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
	// The overlay grows even when the region lane refused the graph: its
	// tracker and colorer must cover every arc of the view.
	if oerr := c.overlay.sess.growTopology(); gerr == nil {
		gerr = oerr
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
		if e.refused == nil {
			e.refused = map[digraph.ArcID]bool{}
		}
		e.refused[ga] = true
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
		idx:  lo.idx,
		view: digraph.ComponentView{G: g, ToGlobalVertex: gvs, ToGlobalArc: gas},
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
