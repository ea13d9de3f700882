package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// benchmark prints from: the gated metrics of metricTable are its
// end-to-end metrics, and layerTable is its per-layer list.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var gated []entry
	for _, m := range metricTable {
		if m.Gated {
			better := "lower"
			if m.Higher {
				better = "higher"
			}
			gated = append(gated, entry{m.Name, m.Unit, better, m.Bound})
		}
	}
	if len(gated) != len(b.EndToEnd) {
		t.Fatalf("%d gated metrics, BENCHMARK.json has %d", len(gated), len(b.EndToEnd))
	}
	for i := range gated {
		if gated[i] != b.EndToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, metricTable has %+v", i, b.EndToEnd[i], gated[i])
		}
	}
	if len(layerTable) != len(b.PerLayer) {
		t.Fatalf("%d layer metrics, BENCHMARK.json has %d", len(layerTable), len(b.PerLayer))
	}
	for i, l := range layerTable {
		if l.Name != b.PerLayer[i].Name || l.Unit != b.PerLayer[i].Unit {
			t.Errorf("per_layer[%d] = %+v, layerTable has %+v", i, b.PerLayer[i], l)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // the median needs 10 samples above it
		{20, 0.5},  //
		{99, 0.5},  // p90 has 9 above it
		{100, 0.9}, // p90 has 10 above it
		{999, 0.9}, // p99 has 9 above it
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
		{1 << 20, 0.999}, // the ladder ends at p99.9
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for _, q := range tailLadder {
		n := minSamples(q)
		if tailQuantile(n) < q || (n > 1 && tailQuantile(n-1) >= q) {
			t.Errorf("minSamples(%v) = %d is not the first count that supports it", q, n)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := &sample{}
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := s.q(c.q); got != c.want {
			t.Errorf("q(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestEnvelopeKeepsFastestRepetition: each op keeps its fastest
// repetition, a slow repetition of every op moves nothing, ops past the
// first n are dropped, and ops never run are left out.
func TestEnvelopeKeepsFastestRepetition(t *testing.T) {
	e := newEnvelope(4)
	for rep, slow := range []time.Duration{1, 3, 1} { // the second repetition ran on a busy host
		for op := 0; op < 5; op++ {
			if op == 3 {
				continue
			}
			e.add(op, slow*time.Duration(op+1)*time.Millisecond+time.Duration(rep))
		}
	}
	got := e.sample().v
	want := []float64{1e6, 2e6, 3e6}
	if len(got) != len(want) {
		t.Fatalf("envelope = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("envelope[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// exclusive method, on values worked out with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // Python extrapolates past the ends
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// simClock is a simulated clock: Sleep advances time instantly.
type simClock struct{ now time.Time }

func (c *simClock) Now() time.Time        { return c.now }
func (c *simClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// everyMs is a due schedule of one request per millisecond.
func everyMs() func() float64 {
	k := 0
	return func() float64 {
		k++
		return float64(k) / 1000
	}
}

// TestOpenLoopDueTimeAccounting drives the generator against a
// simulated server that serves one request per millisecond and stalls
// for 50ms at t=10ms. Requests keep arriving every millisecond, so each
// one due during the stall queues behind it, and its latency — taken
// from its due time — carries the rest of the stall.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	clk := &simClock{now: time.Unix(0, 0)}
	start := clk.now
	loop := &openLoop{clk: clk, start: start, next: everyMs()}
	const (
		service = time.Millisecond
		stallAt = 10 * time.Millisecond
		stall   = 50 * time.Millisecond
	)
	free := start // when the simulated server is next idle
	var lat []time.Duration
	loop.run(start.Add(100*time.Millisecond), func(seq int, due time.Time) {
		begin := clk.Now()
		if free.After(begin) {
			begin = free
		}
		if !begin.Before(start.Add(stallAt)) && begin.Before(start.Add(stallAt+stall)) {
			begin = start.Add(stallAt + stall)
		}
		free = begin.Add(service)
		lat = append(lat, free.Sub(due))
	}, nil)

	if len(lat) != 99 {
		t.Fatalf("issued %d requests, want 99", len(lat))
	}
	if lat[0] != service {
		t.Errorf("first request latency %v, want its service time %v", lat[0], service)
	}
	// Every request due during the stall waits at least for what is
	// left of it.
	for i := 10; i < 59; i++ {
		due := start.Add(time.Duration(i+1) * time.Millisecond)
		if left := start.Add(stallAt + stall).Sub(due); lat[i] < left {
			t.Errorf("request %d latency %v hides part of the %v left of the stall", i, lat[i], left)
		}
	}
	// Requests due after it inherit the backlog.
	if lat[70] <= 10*service {
		t.Errorf("request due after the stall has latency %v, want the backlog in it", lat[70])
	}
	// The generator itself never ran late.
	if m := loop.lag.q(1); m != 0 {
		t.Errorf("generator lag %vns, want 0", m)
	}
}

// TestOpenLoopGeneratorLag stalls the generator itself: sending one
// request takes 30ms, so the requests due meanwhile go out late. Their
// lateness is recorded as lag, and latency taken from the due time
// still counts it.
func TestOpenLoopGeneratorLag(t *testing.T) {
	clk := &simClock{now: time.Unix(0, 0)}
	start := clk.now
	loop := &openLoop{clk: clk, start: start, next: everyMs()}
	var lat []time.Duration
	loop.run(start.Add(50*time.Millisecond), func(seq int, due time.Time) {
		if seq == 4 {
			clk.Sleep(30 * time.Millisecond) // the generator stalls while sending
		}
		lat = append(lat, clk.Now().Sub(due))
	}, nil)
	if len(lat) != 49 {
		t.Fatalf("issued %d requests, want 49: an open loop sends the backlog, it does not skip it", len(lat))
	}
	if got := loop.lag.q(1) / 1e6; got < 28.9 {
		t.Errorf("max generator lag %.1fms, want about 29ms", got)
	}
	if lat[5] < 28*time.Millisecond {
		t.Errorf("request due during the generator stall has latency %v, want about 29ms", lat[5])
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name     string
		old, new []float64
		higher   bool
		want     string
	}{
		{"same runs", base, base, false, verdictUnchanged},
		{"within bound", base, scale(base, 1.03), false, verdictUnchanged},
		{"worse past bound", base, scale(base, 1.2), false, verdictWorse},
		{"worse past bound, higher is better", base, scale(base, 0.8), true, verdictWorse},
		{"every run better", base, scale(base, 0.8), false, verdictBetter},
		{"every run better despite noise", noisy, scale(base, 0.5), false, verdictBetter},
		{"spread wider than bound", noisy, noisy, false, verdictUnresolved},
		{"noisy new side", base, noisy, false, verdictUnresolved},
		{"no runs", nil, base, false, verdictUnresolved},
		// Median better by more than the old spread, but new wins only
		// eight tenths of the pairs: not a gain.
		{"median better, pairs split", base, []float64{97, 97, 97, 97, 97, 97, 97, 97, 103, 103}, false, verdictUnchanged},
		{"median better, pairs won", base, []float64{97, 97, 97, 97, 97, 97, 97, 97, 97, 99}, false, verdictBetter},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.new, c.higher, 0.05); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
