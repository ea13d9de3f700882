package gen

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"wavedag/internal/digraph"
)

// FaultEvent is one entry of a fault schedule: at time At the arc is
// cut (Restore false) or repaired (Restore true). Times are in
// arbitrary simulation units — the engine only cares about the order.
type FaultEvent struct {
	Restore bool
	Arc     digraph.ArcID
	At      float64
}

// FaultSchedule draws an alternating-renewal fiber fault process over
// the arcs of g: each arc independently cycles up-down with
// exponentially distributed up times (mean mtbf) and down times (mean
// mttr), sampled out to the horizon. The merged, time-sorted event
// stream is returned; per arc every restore follows its cut, so
// replaying the schedule in order against FailArc/RestoreArc is always
// valid. Deterministic given the seed.
func FaultSchedule(g *digraph.Digraph, mtbf, mttr, horizon float64, seed int64) ([]FaultEvent, error) {
	if mtbf <= 0 || mttr <= 0 {
		return nil, fmt.Errorf("gen: fault schedule needs mtbf > 0 and mttr > 0, got %g and %g", mtbf, mttr)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("gen: fault schedule needs horizon > 0, got %g", horizon)
	}
	events := drawFaults(g, mtbf, mttr, horizon, seed)
	sortFaults(events)
	return events, nil
}

// sortFaults sorts events by time. The sort is stable, so events at
// equal times keep their draw order and the schedule is fixed uniquely;
// being generic, it avoids the reflection-based swapper of
// sort.SliceStable, which dominated FaultSchedule on large schedules.
func sortFaults(events []FaultEvent) {
	slices.SortStableFunc(events, func(a, b FaultEvent) int { return cmp.Compare(a.At, b.At) })
}

// drawFaults samples the per-arc up-down cycles of FaultSchedule, arc
// by arc, unsorted.
func drawFaults(g *digraph.Digraph, mtbf, mttr, horizon float64, seed int64) []FaultEvent {
	rng := rand.New(rand.NewSource(seed))
	var events []FaultEvent
	for a := 0; a < g.NumArcs(); a++ {
		t := rng.ExpFloat64() * mtbf
		for t < horizon {
			events = append(events, FaultEvent{Arc: digraph.ArcID(a), At: t})
			t += rng.ExpFloat64() * mttr
			if t >= horizon {
				break
			}
			events = append(events, FaultEvent{Restore: true, Arc: digraph.ArcID(a), At: t})
			t += rng.ExpFloat64() * mtbf
		}
	}
	return events
}
