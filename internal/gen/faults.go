package gen

import (
	"fmt"
	"math"
	"math/rand"

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
// valid. mtbf, mttr and horizon must be finite and > 0. Deterministic
// given the seed.
func FaultSchedule(g *digraph.Digraph, mtbf, mttr, horizon float64, seed int64) ([]FaultEvent, error) {
	if !positiveFinite(mtbf) || !positiveFinite(mttr) || !positiveFinite(horizon) {
		return nil, fmt.Errorf("gen: fault schedule needs finite mtbf, mttr and horizon > 0, got %g, %g and %g", mtbf, mttr, horizon)
	}
	events := drawFaults(g, mtbf, mttr, horizon, seed)
	sortFaults(events)
	return events, nil
}

// positiveFinite reports whether x is a real number > 0: NaN and +Inf
// are not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// sortFaults sorts events by time, stably: events at equal times keep
// their draw order, so the schedule is fixed uniquely. Every time is
// finite and >= 0, so the IEEE-754 bit patterns of the times order like
// the times themselves, and a least-significant-digit radix sort over
// them sorts in O(n): six passes of faultDigitBits bits each. LSD
// passes are stable, and a pass whose digit is the same for every event
// is skipped.
func sortFaults(events []FaultEvent) {
	if len(events) < 2 {
		return
	}
	const digits = (64 + faultDigitBits - 1) / faultDigitBits
	counts := make([][1 << faultDigitBits]int, digits)
	for _, ev := range events {
		k := math.Float64bits(ev.At)
		for d := range counts {
			counts[d][k>>(d*faultDigitBits)&faultDigitMask]++
		}
	}
	src, dst := events, make([]FaultEvent, len(events))
	for d := range counts {
		shift := d * faultDigitBits
		c := &counts[d]
		if c[math.Float64bits(src[0].At)>>shift&faultDigitMask] == len(src) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, ev := range src {
			b := math.Float64bits(ev.At) >> shift & faultDigitMask
			dst[c[b]] = ev
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &events[0] { // an odd number of passes ran
		copy(events, src)
	}
}

// faultDigitBits is the radix of sortFaults: 2^11 counters of a pass
// stay in the first-level cache, and 64-bit keys take six passes.
const (
	faultDigitBits = 11
	faultDigitMask = 1<<faultDigitBits - 1
)

// drawFaults samples the per-arc up-down cycles of FaultSchedule, arc
// by arc, unsorted. Each arc makes about horizon/(mtbf+mttr) cycles of
// two events each, so the slice is sized once from that expectation
// plus four standard deviations of the count (whose variance is at most
// twice its mean) rather than regrown by appends. The cap keeps the
// estimate's conversion to int defined for absurd parameters.
func drawFaults(g *digraph.Digraph, mtbf, mttr, horizon float64, seed int64) []FaultEvent {
	rng := rand.New(rand.NewSource(seed))
	expected := float64(g.NumArcs()) * (horizon/(mtbf+mttr)*2 + 1)
	events := make([]FaultEvent, 0, int(math.Min(expected+4*math.Sqrt(2*expected), math.MaxInt32)))
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
