package main

import (
	"time"

	"wavedag/internal/core"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

// replayOp is one applied churn op: an accepted arrival with its
// request, or the departure of arrival seq.
type replayOp struct {
	add bool
	seq int
	req route.Request
}

// replay runs ops once through an unsharded stack of the public layer
// objects the engine's sessions are built from — Router.MinLoadPath for
// routing, LoadTracker.FitsAdditional for the Theorem-1 admission
// check, IncrementalColorer.Add/Remove and LoadTracker.Add/Remove for
// coloring and load — with a span around each call. The stack is first
// filled, untimed, with warm: the arrivals live when the ops began, so
// the replay runs at the engine's working set. Route, admission
// and coloring run inside the engine where the benchmark cannot time
// them; this replay is the stand-in. It sees no fiber cuts and no
// region banding, so its numbers are estimates of the engine's layers,
// not measurements of them. It returns the layer time per op in ns.
func replay(g *digraph.Digraph, warm, ops []replayOp, budget int, log *spanLog) float64 {
	router := route.NewRouter(g)
	tracker := load.NewTracker(g)
	colorer := core.NewIncremental(g, 0)
	type held struct {
		p    *dipath.Path
		slot int
	}
	live := make(map[int]held, churnLive)
	var total time.Duration
	timed := func(name string, req int64, f func()) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		log.record(name, req, "replay.op", t0, t1)
		total += t1.Sub(t0)
	}
	for _, op := range warm {
		p, err := router.MinLoadPath(op.req, tracker)
		if err != nil || !tracker.FitsAdditional(p, budget) {
			continue
		}
		slot, err := colorer.Add(p)
		if err != nil {
			continue
		}
		tracker.Add(p)
		live[op.seq] = held{p, slot}
	}
	for _, op := range ops {
		req := int64(op.seq)
		if !op.add {
			h, ok := live[op.seq]
			if !ok {
				continue // the replay blocked or could not route this arrival
			}
			delete(live, op.seq)
			timed("coloring.remove", req, func() { _ = colorer.Remove(h.slot) })
			timed("load.remove", req, func() { tracker.Remove(h.p) })
			continue
		}
		var (
			p    *dipath.Path
			err  error
			fits bool
			slot int
		)
		timed("route.minload", req, func() { p, err = router.MinLoadPath(op.req, tracker) })
		if err != nil {
			continue
		}
		timed("admission.check", req, func() { fits = tracker.FitsAdditional(p, budget) })
		if !fits {
			continue
		}
		timed("coloring.add", req, func() { slot, err = colorer.Add(p) })
		if err != nil {
			continue
		}
		timed("load.add", req, func() { tracker.Add(p) })
		live[op.seq] = held{p, slot}
	}
	if len(ops) == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(len(ops))
}
