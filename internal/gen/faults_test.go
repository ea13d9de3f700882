package gen

import (
	"math"
	"slices"
	"sort"
	"testing"

	"wavedag/internal/digraph"
)

func TestFaultScheduleValidAndDeterministic(t *testing.T) {
	g, err := RandomNoInternalCycleDAG(20, 4, 4, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	ev1, err := FaultSchedule(g, 50, 10, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev1) == 0 {
		t.Fatal("empty schedule at mtbf far below the horizon")
	}
	// Time-sorted, and per arc strictly alternating cut/restore starting
	// with a cut — exactly what a FailArc/RestoreArc replay requires.
	down := make(map[digraph.ArcID]bool)
	last := 0.0
	for i, ev := range ev1 {
		if ev.At < last {
			t.Fatalf("event %d out of order: %g after %g", i, ev.At, last)
		}
		last = ev.At
		if ev.Restore == !down[ev.Arc] {
			t.Fatalf("event %d: restore=%v on arc %d while down=%v", i, ev.Restore, ev.Arc, down[ev.Arc])
		}
		down[ev.Arc] = !ev.Restore
		if ev.At < 0 || ev.At >= 500 {
			t.Fatalf("event %d outside horizon: %g", i, ev.At)
		}
	}
	// Deterministic given the seed; different seeds diverge.
	ev2, err := FaultSchedule(g, 50, 10, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("same seed diverged at event %d", i)
		}
	}
	// Parameter validation.
	if _, err := FaultSchedule(g, 0, 10, 500, 1); err == nil {
		t.Fatal("mtbf=0 accepted")
	}
	if _, err := FaultSchedule(g, 50, -1, 500, 1); err == nil {
		t.Fatal("negative mttr accepted")
	}
	if _, err := FaultSchedule(g, 50, 10, 0, 1); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

// TestFaultScheduleMatchesSliceStable checks the generic stable sort of
// FaultSchedule against the reflection-based sort.SliceStable it
// replaced, for several seeds and topologies: both sorts are stable, so
// the schedules must be equal event for event. Drawn times almost never
// tie, so the sorts are also compared on the same draws with their
// times rounded to a coarse grid, where most events tie.
func TestFaultScheduleMatchesSliceStable(t *testing.T) {
	layered, err := RandomNoInternalCycleDAG(60, 6, 6, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*digraph.Digraph{
		"no-internal-cycle": layered,
		"random-dag":        RandomDAG(40, 120, 5),
	}
	oracle := func(events []FaultEvent) []FaultEvent {
		out := slices.Clone(events)
		sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
		return out
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 4; seed++ {
			got, err := FaultSchedule(g, 40, 8, 400, seed)
			if err != nil {
				t.Fatal(err)
			}
			drawn := drawFaults(g, 40, 8, 400, seed)
			if !slices.Equal(got, oracle(drawn)) {
				t.Fatalf("%s seed %d: schedule differs from the sort.SliceStable oracle", name, seed)
			}
			for i := range drawn {
				drawn[i].At = math.Floor(drawn[i].At / 50)
			}
			want := oracle(drawn)
			sortFaults(drawn)
			if !slices.Equal(drawn, want) {
				t.Fatalf("%s seed %d: tied schedule differs from the sort.SliceStable oracle", name, seed)
			}
		}
	}
}
