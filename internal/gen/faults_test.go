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

// TestFaultScheduleMatchesSliceStable checks the radix sort of
// FaultSchedule against sort.SliceStable, for several seeds and
// topologies: both sorts are stable, so the schedules must be equal
// event for event. Drawn times almost never
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

// TestFaultScheduleRejectsNonFinite checks that a NaN or infinite mtbf,
// mttr or horizon is an error. An infinite horizon used to pass the
// "> 0" check and draw forever; a NaN one returned an empty schedule.
func TestFaultScheduleRejectsNonFinite(t *testing.T) {
	g := RandomDAG(10, 20, 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, args := range [][3]float64{{bad, 10, 500}, {50, bad, 500}, {50, 10, bad}} {
			if _, err := FaultSchedule(g, args[0], args[1], args[2], 1); err == nil {
				t.Errorf("parameter %d = %g accepted", i, bad)
			}
		}
	}
}

// FuzzFaultSchedule decodes a small DAG, the fault-process parameters
// and a time grid from bytes, and compares FaultSchedule with the
// sort.SliceStable oracle, on the drawn times and on the same draws
// rounded to the grid, where many events tie.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint8(12), uint8(30), 40.0, 8.0, 400.0, 50.0, int64(1))
	f.Add(uint8(3), uint8(2), 1.0, 1e-9, 30.0, 0.0, int64(2))
	f.Add(uint8(20), uint8(60), 5.0, 300.0, 1000.0, 1.0, int64(3))
	f.Add(uint8(5), uint8(4), math.NaN(), 1.0, math.Inf(1), 0.0, int64(4))
	f.Fuzz(func(t *testing.T, n, m uint8, mtbf, mttr, horizon, grid float64, seed int64) {
		g := RandomDAG(int(n%24), int(m%80), seed)
		valid := positiveFinite(mtbf) && positiveFinite(mttr) && positiveFinite(horizon)
		// Skip processes with more than a few dozen cycles per arc: the
		// schedule grows with horizon/(mtbf+mttr).
		if valid && horizon/(mtbf+mttr) > 64 {
			return
		}
		events, err := FaultSchedule(g, mtbf, mttr, horizon, seed)
		if (err == nil) != valid {
			t.Fatalf("mtbf=%g mttr=%g horizon=%g: err = %v", mtbf, mttr, horizon, err)
		}
		if !valid {
			return
		}
		oracle := func(events []FaultEvent) []FaultEvent {
			out := slices.Clone(events)
			sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
			return out
		}
		drawn := drawFaults(g, mtbf, mttr, horizon, seed)
		if !slices.Equal(events, oracle(drawn)) {
			t.Fatal("schedule differs from the sort.SliceStable oracle")
		}
		if !positiveFinite(grid) {
			return
		}
		for i := range drawn {
			drawn[i].At = math.Floor(drawn[i].At / grid)
		}
		want := oracle(drawn)
		sortFaults(drawn)
		if !slices.Equal(drawn, want) {
			t.Fatal("schedule on the grid differs from the sort.SliceStable oracle")
		}
	})
}
