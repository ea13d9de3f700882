package conflict

import (
	"fmt"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
)

// Dynamic is a mutable conflict layer over a fixed digraph: a set of
// dipaths that can be inserted and removed one at a time while the
// "shares an arc" relation and a χ/ω lower bound are maintained
// incrementally. It is the conflict layer of the dynamic provisioning
// engine (wdm.Session): a one-shot FromFamily + full solve per request
// arrival would pay the whole pipeline again, whereas Dynamic pays only
// for the arcs the new dipath traverses.
//
// Dipaths occupy slots, small dense integers handed out by AddPath and
// recycled by RemovePath. The relation is kept in its arc form only:
// per-arc incidence lists record which live slots traverse each arc,
// and two slots conflict exactly when they share a list. Nothing is
// stored per pair of slots, so inserting or removing a path costs
// O(len(path)) plus the scan of its arcs' lists on removal. The
// incidence lists double as an arc-load table, from which LowerBound
// maintains max-arc-load in O(1) amortised per update: the dipaths
// through the most loaded arc pairwise conflict, so maxload ≤ ω ≤ χ.
// Callers that need the conflict graph itself build it with FromFamily
// over Family().
//
// A Dynamic is not safe for concurrent use.
type Dynamic struct {
	g *digraph.Digraph

	paths []*dipath.Path // paths[s] = dipath in slot s; nil = free
	free  []int          // recycled slots
	live  int            // number of occupied slots

	arcPaths  [][]int // arc -> live slots traversing it (unordered)
	loadCount []int   // loadCount[l] = arcs with exactly load l (l >= 1)
	maxLoad   int     // max over arcs of len(arcPaths[a])
}

// NewDynamic returns an empty mutable conflict layer for dipaths of g.
func NewDynamic(g *digraph.Digraph) *Dynamic {
	return &Dynamic{
		g:        g,
		arcPaths: make([][]int, g.NumArcs()),
	}
}

// Graph returns the digraph the tracked dipaths live on.
func (d *Dynamic) Graph() *digraph.Digraph { return d.g }

// NumLive returns the number of dipaths currently tracked.
func (d *Dynamic) NumLive() int { return d.live }

// NumSlots returns the slot-space high-water mark: every live slot is
// < NumSlots(). Palettes and per-slot tables should be sized by it.
func (d *Dynamic) NumSlots() int { return len(d.paths) }

// Path returns the dipath in slot s, or nil when the slot is free.
func (d *Dynamic) Path(s int) *dipath.Path {
	if s < 0 || s >= len(d.paths) {
		return nil
	}
	return d.paths[s]
}

// ForEachOnArc calls f on every live slot whose dipath traverses arc a.
// The order is unspecified (the incidence buckets are maintained by
// swap-removal); f must not mutate d. This is the arc-indexed incidence
// the survivability layer uses to find the paths hit by a fiber cut in
// O(affected) instead of O(live).
func (d *Dynamic) ForEachOnArc(a digraph.ArcID, f func(slot int)) {
	if int(a) >= len(d.arcPaths) {
		return
	}
	for _, s := range d.arcPaths[a] {
		f(s)
	}
}

// GrowArcs extends the per-arc incidence to cover n arcs. No live
// dipath traverses an arc that did not exist when it was validated, so
// loads and the lower bound are unchanged — the new buckets start
// empty. Live-capacity hook; see load.Tracker.GrowArcs.
// n at or below the current arc count is a no-op.
func (d *Dynamic) GrowArcs(n int) {
	for len(d.arcPaths) < n {
		d.arcPaths = append(d.arcPaths, nil)
	}
}

// LowerBound returns the maximum arc load of the live dipaths — the
// paths through that arc form a clique, so this bounds both the clique
// number ω and the chromatic number χ of the conflict graph from below.
// It is maintained incrementally (a load histogram), so the call is O(1).
func (d *Dynamic) LowerBound() int { return d.maxLoad }

// AddPath inserts p and returns its slot in O(len(p)).
func (d *Dynamic) AddPath(p *dipath.Path) (int, error) {
	if p == nil {
		return -1, fmt.Errorf("conflict: nil dipath")
	}
	if err := p.Validate(d.g); err != nil {
		return -1, err
	}
	s := d.takeSlot()
	for _, a := range p.Arcs() {
		d.arcPaths[a] = append(d.arcPaths[a], s)
		d.bumpLoad(len(d.arcPaths[a]))
	}
	d.paths[s] = p
	d.live++
	return s, nil
}

// RemovePath deletes the dipath in slot s; the slot is recycled. The
// cost is O(len(path) + paths sharing its arcs): each arc's list is
// scanned for s.
func (d *Dynamic) RemovePath(s int) error {
	if s < 0 || s >= len(d.paths) || d.paths[s] == nil {
		return fmt.Errorf("conflict: slot %d is not live", s)
	}
	p := d.paths[s]
	for _, a := range p.Arcs() {
		bucket := d.arcPaths[a]
		for i, t := range bucket {
			if t == s {
				bucket[i] = bucket[len(bucket)-1]
				d.arcPaths[a] = bucket[:len(bucket)-1]
				break
			}
		}
		d.dropLoad(len(bucket) - 1)
	}
	d.paths[s] = nil
	d.free = append(d.free, s)
	d.live--
	return nil
}

// bumpLoad records an arc moving from load l-1 to load l.
func (d *Dynamic) bumpLoad(l int) {
	for len(d.loadCount) <= l {
		d.loadCount = append(d.loadCount, 0)
	}
	if l > 1 {
		d.loadCount[l-1]--
	}
	d.loadCount[l]++
	if l > d.maxLoad {
		d.maxLoad = l
	}
}

// dropLoad records an arc moving from load l+1 to load l.
func (d *Dynamic) dropLoad(l int) {
	d.loadCount[l+1]--
	if l > 0 {
		d.loadCount[l]++
	}
	for d.maxLoad > 0 && d.loadCount[d.maxLoad] == 0 {
		d.maxLoad--
	}
}

// takeSlot returns a free slot, appending a new one when none is
// recycled.
func (d *Dynamic) takeSlot() int {
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free = d.free[:n-1]
		return s
	}
	d.paths = append(d.paths, nil)
	return len(d.paths) - 1
}

// LiveSlots returns the live slots in increasing order.
func (d *Dynamic) LiveSlots() []int {
	out := make([]int, 0, d.live)
	for s, p := range d.paths {
		if p != nil {
			out = append(out, s)
		}
	}
	return out
}

// Family returns the live dipaths in increasing slot order.
func (d *Dynamic) Family() dipath.Family {
	fam := make(dipath.Family, 0, d.live)
	for _, p := range d.paths {
		if p != nil {
			fam = append(fam, p)
		}
	}
	return fam
}
