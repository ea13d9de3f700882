package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the tail percentiles a timing may be reported at,
// lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// minBeyond is how many samples must lie above a reported percentile.
// Fewer than that and the percentile is one or two unlucky samples,
// not a property of the distribution.
const minBeyond = 10

// beyond returns how many of n samples rank above the q-quantile under
// the nearest-rank definition percentile uses.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples above it, or 0 when even the median
// has too few.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// minSamples returns the smallest sample count at which q can be
// reported (the inverse of tailQuantile for one rung).
func minSamples(q float64) int {
	n := 1
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank q-quantile of sorted (ascending),
// or 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sample collects one timing (or other) distribution.
type sample struct{ v []float64 }

func (s *sample) add(x float64)          { s.v = append(s.v, x) }
func (s *sample) addDur(d time.Duration) { s.v = append(s.v, float64(d.Nanoseconds())) }
func (s *sample) n() int                 { return len(s.v) }

// q returns the q-quantile; it sorts the sample in place.
func (s *sample) q(q float64) float64 {
	if !sort.Float64sAreSorted(s.v) {
		sort.Float64s(s.v)
	}
	return percentile(s.v, q)
}

func (s *sample) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.v))
}

func (s *sample) sum() float64 {
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t
}

// windowTail is the percentile serve-poisson's op_tail_us takes per
// one-second window: a window's p99 moved by a quarter between runs on
// a shared 2-vCPU VM.
const windowTail = 0.9

// windowedTail is the median, over windows holding enough samples for
// it, of each window's q-quantile; 0 if none does. A host stall of a
// few milliseconds moves a whole-run tail by a third from run to run on
// a shared machine; it moves one window's.
func windowedTail(windows []sample, q float64) float64 {
	var tails sample
	for i := range windows {
		if w := &windows[i]; w.n() >= minSamples(q) {
			tails.add(w.q(q))
		}
	}
	return tails.q(0.5)
}

// envelope keeps, for each op of a sequence that a closed loop repeats
// with identical work, the fastest of its repetitions. On a shared host
// the neighbours slow every operation by a third for seconds at a time,
// and how much of a run they cover changes from run to run, which moved
// whole-run medians by a third between runs; an op's fastest repetition
// keeps the program's own cost. An envelope keeps the first n ops of the
// sequence, and its quantiles are taken over them.
type envelope struct{ best []float64 }

func newEnvelope(n int) *envelope {
	e := &envelope{best: make([]float64, n)}
	for i := range e.best {
		e.best[i] = math.Inf(1)
	}
	return e
}

// add files one repetition of op; ops past the first n are ignored.
func (e *envelope) add(op int, d time.Duration) {
	if op < len(e.best) {
		e.best[op] = math.Min(e.best[op], float64(d.Nanoseconds()))
	}
}

// sample returns the fastest repetition of each op seen.
func (e *envelope) sample() *sample {
	s := &sample{}
	for _, b := range e.best {
		if !math.IsInf(b, 1) {
			s.add(b)
		}
	}
	return s
}

// quartiles returns the first quartile, median and third quartile of
// xs with the exclusive method of Python's statistics.quantiles(n=4),
// which is how run-to-run spreads of this benchmark are judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles' own arithmetic, clamping included.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// ── Open-loop accounting ──────────────────────────────────────────────

// clock is the time source of the open-loop generator; tests swap in a
// simulated one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop issues requests on a precomputed schedule of due times and
// never waits for responses: a slow server receives the same offered
// load as a fast one. Latency is charged from each request's due time,
// not from when the generator got around to sending it, so a stall
// (in the server or in the generator itself) shows in every request
// due during it.
type openLoop struct {
	clk   clock
	start time.Time
	next  func() float64 // next due offset in seconds, increasing
	lag   sample         // ns the generator issued each request late
}

// run issues every request due before end, calling issue with its
// sequence number and due time, and tick once per wake-up. It returns
// the number issued.
func (o *openLoop) run(end time.Time, issue func(seq int, due time.Time), tick func()) int {
	seq := 0
	due := o.start.Add(secs(o.next()))
	for due.Before(end) {
		now := o.clk.Now()
		if now.Before(due) {
			o.clk.Sleep(due.Sub(now))
			continue
		}
		if tick != nil {
			tick()
		}
		for !due.After(now) && due.Before(end) {
			o.lag.addDur(now.Sub(due))
			issue(seq, due)
			seq++
			due = o.start.Add(secs(o.next()))
		}
	}
	return seq
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ── Compare verdicts ──────────────────────────────────────────────────

// Verdicts of compare mode.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// sideStats is one side of a comparison: its runs' values, median and
// quartiles.
type sideStats struct {
	Runs        []float64
	Q1, Med, Q3 float64
	Spread      float64 // (Q3-Q1)/|Med|
}

func newSide(runs []float64) sideStats {
	q1, med, q3 := quartiles(runs)
	sp := 0.0
	if med != 0 {
		sp = (q3 - q1) / math.Abs(med)
	} else if q3 != q1 {
		sp = math.Inf(1)
	}
	return sideStats{Runs: runs, Q1: q1, Med: med, Q3: q3, Spread: sp}
}

// verdict judges a metric between the parent's runs (old) and the
// change's runs (new). higher says whether larger values are better;
// bound is the share of the old median by which the metric may worsen
// before it counts as a regression.
//
//   - Every run of new better than every run of old: better, whatever
//     the spread.
//   - Otherwise, a spread on either side wider than the bound leaves the
//     comparison unresolved.
//   - Otherwise, a median worse by more than the bound is worse; a
//     median better by more than the old side's own spread, with new
//     winning at least nine tenths of the pairs (ties counting for
//     neither), is better; anything else is unchanged.
func verdict(old, new []float64, higher bool, bound float64) string {
	if len(old) == 0 || len(new) == 0 {
		return verdictUnresolved
	}
	better := func(a, b float64) bool { // a reads better than b
		if higher {
			return a > b
		}
		return a < b
	}
	// new's worst run against old's best run.
	if better(extreme(new, !higher), extreme(old, higher)) {
		return verdictBetter
	}
	o, n := newSide(old), newSide(new)
	if o.Spread > bound || n.Spread > bound {
		return verdictUnresolved
	}
	// Relative change of the median, positive when new is worse.
	base := math.Abs(o.Med)
	if base == 0 {
		if n.Med == o.Med {
			return verdictUnchanged
		}
		return verdictUnresolved
	}
	worse := (n.Med - o.Med) / base
	if higher {
		worse = -worse
	}
	if worse > bound {
		return verdictWorse
	}
	wins, pairs := 0, 0
	for _, a := range new {
		for _, b := range old {
			pairs++
			if better(a, b) {
				wins++
			}
		}
	}
	if -worse*base > o.Q3-o.Q1 && 10*wins >= 9*pairs {
		return verdictBetter
	}
	return verdictUnchanged
}

// extreme returns the maximum of xs when max is set, else its minimum.
func extreme(xs []float64, max bool) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if (max && x > m) || (!max && x < m) {
			m = x
		}
	}
	return m
}
