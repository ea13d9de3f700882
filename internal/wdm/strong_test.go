package wdm

import "wavedag/internal/dipath"

// Mutex-serialised reads of live engine state. They are the oracles the
// snapshot tests check every lock-free query against: each one takes
// the engine mutex and recomputes its answer from the sessions, so a
// snapshot that missed a publication or a dirty shard disagrees with
// them.

// strongStats is the oracle for Stats: the layout, overlay occupancy
// and per-lane traffic shares assembled from the live sessions under
// the engine mutex.
func strongStats(e *ShardedEngine) EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

// strongOverlayLambda is the oracle for OverlayLambda: the maximum
// overlay λ across components with region lanes, read under the engine
// mutex. The error is always nil.
func strongOverlayLambda(e *ShardedEngine) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, c := range e.comps {
		if !c.dead && len(c.regionShards) > 0 {
			n = max(n, c.overlay.lambda())
		}
	}
	return n, nil
}

// strongPath is the oracle for Path: the current route of a live
// request in engine identifiers, read under the engine mutex.
func strongPath(e *ShardedEngine, id ShardedID) (*dipath.Path, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sh, lid, err := e.resolveID(id)
	if err != nil {
		return nil, err
	}
	p, err := sh.sess.Path(lid)
	if err != nil {
		return nil, err
	}
	return sh.globalPath(e, p)
}

// strongWavelength is the oracle for Wavelength, read under the engine
// mutex. Overlay lane wavelengths are reported in the component's
// effective band (region maximum + overlay class).
func strongWavelength(e *ShardedEngine, id ShardedID) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sh, lid, err := e.resolveID(id)
	if err != nil {
		return -1, err
	}
	w, err := sh.sess.Wavelength(lid)
	if err != nil || sh.kind != shardOverlay || w < 0 {
		return w, err
	}
	return sh.comp.regionLambdaMax() + w, nil
}

// strongLen is the oracle for Len, read under the engine mutex.
func strongLen(e *ShardedEngine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, sh := range e.shards {
		total += sh.sess.Len()
	}
	return total
}

// strongPi is the oracle for Pi: the maximum over live components of
// the overlay tracker's load, read under the engine mutex.
func strongPi(e *ShardedEngine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	pi := 0
	for _, c := range e.comps {
		if !c.dead {
			pi = max(pi, c.overlay.sess.Pi())
		}
	}
	return pi
}

// strongNumLambda is the oracle for NumLambda: the maximum over
// components of region maximum plus overlay band, read under the
// engine mutex. The error is always nil.
func strongNumLambda(e *ShardedEngine) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	num := 0
	for _, c := range e.comps {
		if !c.dead {
			num = max(num, c.regionLambdaMax()+c.overlay.lambda())
		}
	}
	return num, nil
}

// strongArcLoads is the oracle for ArcLoads: every live component's
// overlay tracker scattered into a fresh vector under the engine mutex.
func strongArcLoads(e *ShardedEngine) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	loads := make([]int, e.net.Topology.NumArcs())
	for _, c := range e.comps {
		if !c.dead {
			// The overlay tracker is the component's combined view.
			c.overlay.sess.tracker.ScatterLoads(loads, c.view.ToGlobalArc)
		}
	}
	return loads
}

// strongNumFailedArcs is the oracle for NumFailedArcs, read under the
// engine mutex.
func strongNumFailedArcs(e *ShardedEngine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.net.Topology.NumFailedArcs()
}

// strongDarkLive is the oracle for DarkLive, read under the engine
// mutex.
func strongDarkLive(e *ShardedEngine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, sh := range e.shards {
		total += sh.sess.DarkLive()
	}
	return total
}

// strongIsDark is the oracle for IsDark, read under the engine mutex.
func strongIsDark(e *ShardedEngine, id ShardedID) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sh, lid, err := e.resolveID(id)
	if err != nil {
		return false, err
	}
	return sh.sess.IsDark(lid)
}
