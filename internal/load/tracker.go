package load

import (
	"fmt"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// Tracker maintains the arc-load vector of a mutable dipath collection
// incrementally: adding or removing a dipath costs O(len(path)) instead
// of the O(|family|·len) full recomputation of ArcLoads. Selection
// searches (groom), split-arc choices (Theorem 6) and sequential routing
// all hammer on "what is the load now?" after small mutations — the
// Tracker is the shared answer.
//
// π (the maximum load) is maintained exactly on Add; Remove only marks it
// stale, and the next Pi call rescans lazily. The zero value is not
// usable; construct with NewTracker or NewTrackerFromFamily.
type Tracker struct {
	loads   []int
	pi      int
	piStale bool // a removal may have lowered the max
	total   int  // number of tracked dipaths
}

// NewTracker returns an empty tracker for the arcs of g.
func NewTracker(g *digraph.Digraph) *Tracker {
	return &Tracker{loads: make([]int, g.NumArcs())}
}

// NewTrackerFromFamily returns a tracker preloaded with every dipath of f.
func NewTrackerFromFamily(g *digraph.Digraph, f dipath.Family) *Tracker {
	t := NewTracker(g)
	for _, p := range f {
		t.Add(p)
	}
	return t
}

// Add accounts one more traversal of every arc of p.
func (t *Tracker) Add(p *dipath.Path) {
	for _, a := range p.Arcs() {
		t.loads[a]++
		if t.loads[a] > t.pi {
			t.pi = t.loads[a]
		}
	}
	t.total++
}

// Remove un-accounts p; it must have been Added before (loads never go
// negative — a mismatch panics, as it means the caller's bookkeeping is
// broken and every later answer would be wrong).
func (t *Tracker) Remove(p *dipath.Path) {
	for _, a := range p.Arcs() {
		if t.loads[a] == 0 {
			panic(fmt.Sprintf("load: Remove of untracked path over arc %d", a))
		}
		if t.loads[a] == t.pi {
			t.piStale = true
		}
		t.loads[a]--
	}
	t.total--
}

// AddArc accounts one more traversal of arc a alone. It is the unit the
// sharded engine's cross-lane reconciliation works in: a tracker
// mirroring a path owned by another lane's session bumps exactly the
// arcs it shares, while the path count stays with the owning tracker
// (NumPaths is unaffected).
func (t *Tracker) AddArc(a digraph.ArcID) {
	t.loads[a]++
	if t.loads[a] > t.pi {
		t.pi = t.loads[a]
	}
}

// RemoveArc un-accounts one traversal of arc a (see AddArc); the arc
// must currently carry load.
func (t *Tracker) RemoveArc(a digraph.ArcID) {
	if t.loads[a] == 0 {
		panic(fmt.Sprintf("load: RemoveArc of unloaded arc %d", a))
	}
	if t.loads[a] == t.pi {
		t.piStale = true
	}
	t.loads[a]--
}

// GrowArcs extends the tracker's arc space to n arcs; the new arcs
// start unloaded. It is the live-capacity hook: an engine adding a
// fiber to a running topology grows every tracker over that graph
// before any path may traverse the new arc. Shrinking is not supported;
// n at or below the current arc count is a no-op.
func (t *Tracker) GrowArcs(n int) {
	for len(t.loads) < n {
		t.loads = append(t.loads, 0)
	}
}

// Load returns the current load of arc a.
func (t *Tracker) Load(a digraph.ArcID) int { return t.loads[a] }

// FitsAdditional reports whether adding p would keep every arc it
// traverses at load at most w — the Theorem-1 admission test: on an
// internal-cycle-free DAG a family fits in w wavelengths exactly when
// its load is at most w, so a session that kept π ≤ w so far can decide
// a new request in O(len(path)) without touching any state. w <= 0
// always fits (no budget). Arcs outside the tracked graph are skipped
// rather than indexed: FitsAdditional does not validate p, and a
// session validates it in its colorer right after, so a foreign path
// is refused there with an error.
func (t *Tracker) FitsAdditional(p *dipath.Path, w int) bool {
	if w <= 0 {
		return true
	}
	for _, a := range p.Arcs() {
		if uint(a) >= uint(len(t.loads)) {
			continue
		}
		if t.loads[a]+1 > w {
			return false
		}
	}
	return true
}

// NumPaths returns the number of dipaths currently tracked.
func (t *Tracker) NumPaths() int { return t.total }

// Pi returns the current maximum arc load. It is logically read-only:
// the write below only refreshes the lazily maintained π cache after
// removals, never the tracked loads themselves.
//
//wavedag:readonly
func (t *Tracker) Pi() int {
	if t.piStale {
		t.pi = 0
		for _, l := range t.loads {
			if l > t.pi {
				t.pi = l
			}
		}
		t.piStale = false
	}
	return t.pi
}

// Loads returns a copy of the current load vector.
func (t *Tracker) Loads() []int { return append([]int(nil), t.loads...) }

// LoadsInto copies the current load vector into dst, reusing its
// capacity (growing it only when too small), and returns the resized
// slice — the allocation-free form of Loads for callers that poll the
// vector in a loop.
func (t *Tracker) LoadsInto(dst []int) []int {
	if cap(dst) < len(t.loads) {
		dst = make([]int, len(t.loads))
	} else {
		dst = dst[:len(t.loads)]
	}
	copy(dst, t.loads)
	return dst
}

// ScatterLoads writes the tracker's per-arc loads into dst under the
// given identifier translation: dst[ids[a]] = Load(a) for every local
// arc a. Shard-local trackers over component views report into one
// global load vector this way — no per-shard copies, no intermediate
// allocation. ids must be at least as long as the tracker's arc space
// and index into dst.
func (t *Tracker) ScatterLoads(dst []int, ids []digraph.ArcID) {
	for a, l := range t.loads {
		dst[ids[a]] = l
	}
}

// MaxAmong returns the arc of maximum current load restricted to the
// candidate set, breaking ties toward the smallest identifier.
func (t *Tracker) MaxAmong(candidates []digraph.ArcID) (digraph.ArcID, int, error) {
	if len(candidates) == 0 {
		return -1, 0, fmt.Errorf("load: empty candidate set")
	}
	best, bestLoad := candidates[0], -1
	for _, a := range candidates {
		if a < 0 || int(a) >= len(t.loads) {
			return -1, 0, fmt.Errorf("load: candidate arc %d out of range", a)
		}
		if t.loads[a] > bestLoad || (t.loads[a] == bestLoad && a < best) {
			best, bestLoad = a, t.loads[a]
		}
	}
	return best, bestLoad, nil
}
