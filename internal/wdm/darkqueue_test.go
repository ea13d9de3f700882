package wdm

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// darkOrderScan is the dark order by definition, and the queue's
// oracle: every alive dark entry, sorted by the stamp of its park.
func darkOrderScan(s *Session) []int32 {
	var idxs []int32
	for idx := range s.entries {
		if e := &s.entries[idx]; e.alive && e.dark {
			idxs = append(idxs, int32(idx))
		}
	}
	slices.SortFunc(idxs, func(a, b int32) int {
		return cmp.Compare(s.entries[a].darkAt, s.entries[b].darkAt)
	})
	return idxs
}

// TestDarkQueueMatchesScan drives budgeted sessions through random
// streams of adds, removes, fiber cuts (which park), repairs and dark
// reroutes (which revive), dark adoptions and drainRetire, and checks
// after every op that the dark queue lists the dark entries in the
// oracle's order, that the walk leaves no stale ref in the queue, and
// that DarkIDs follows the same order.
func TestDarkQueueMatchesScan(t *testing.T) {
	parked, revived, adopted, drained := 0, 0, 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			s    *Session
			ids  []SessionID
			reqs []route.Request
			arcs int
		)
		fresh := func() {
			g := gen.RandomDAG(16, 40, seed)
			arcs = g.NumArcs()
			reqs = reqs[:0]
			for _, p := range gen.RandomWalkFamily(g, 60, 4, seed) {
				reqs = append(reqs, route.Request{Src: p.First(), Dst: p.Last()})
			}
			var err error
			if s, err = (&Network{Topology: g}).NewSession(WithWavelengthBudget(2)); err != nil {
				t.Fatal(err)
			}
			ids = ids[:0]
		}
		fresh()
		for op := 0; op < 2000; op++ {
			before := s.failStats
			switch k := rng.Intn(20); {
			case k < 7:
				if id, adm, err := s.TryAdd(reqs[rng.Intn(len(reqs))]); err == nil && adm.Accepted {
					ids = append(ids, id)
				}
			case k < 11 && len(ids) > 0:
				i := rng.Intn(len(ids))
				if err := s.Remove(ids[i]); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				ids = slices.Delete(ids, i, i+1)
			case k < 14:
				s.FailArc(digraph.ArcID(rng.Intn(arcs)))
			case k < 17:
				s.RestoreArc(digraph.ArcID(rng.Intn(arcs)))
			case k < 18 && len(ids) > 0:
				s.Reroute(ids[rng.Intn(len(ids))])
			case k < 19 && len(ids) > 0:
				e, err := s.lookup(ids[rng.Intn(len(ids))])
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, s.adoptDark(e.req, e.path))
				adopted++
			case k == 19 && rng.Intn(10) == 0:
				s.drainRetire()
				if len(s.darkQueue) != 0 || s.DarkIDs() != nil {
					t.Fatalf("seed %d op %d: drained session keeps %d dark refs", seed, op, len(s.darkQueue))
				}
				drained++
				fresh()
				continue
			}
			parked += s.failStats.Parked - before.Parked
			revived += s.failStats.Revived - before.Revived
			want := darkOrderScan(s)
			if len(want) != s.DarkLive() {
				t.Fatalf("seed %d op %d: %d dark entries, DarkLive %d", seed, op, len(want), s.DarkLive())
			}
			// Read the queue without compacting it, so stale refs pile up
			// across ops as they do between sweeps.
			var got []int32
			for _, r := range s.darkQueue {
				if e := &s.entries[r.idx]; e.alive && e.dark && e.darkAt == r.at {
					got = append(got, r.idx)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: dark queue %v, scan %v", seed, op, got, want)
			}
			if rng.Intn(4) > 0 {
				continue
			}
			var fromIDs []int32
			for _, id := range s.DarkIDs() {
				fromIDs = append(fromIDs, int32(uint32(id)))
			}
			if !slices.Equal(fromIDs, want) {
				t.Fatalf("seed %d op %d: DarkIDs %v, scan %v", seed, op, fromIDs, want)
			}
			if s.darkOrder(); len(s.darkQueue) != len(want) {
				t.Fatalf("seed %d op %d: queue keeps %d refs for %d dark entries", seed, op, len(s.darkQueue), len(want))
			}
		}
	}
	if parked == 0 || revived == 0 || adopted == 0 || drained == 0 {
		t.Fatalf("streams parked %d, revived %d, adopted %d, drained %d", parked, revived, adopted, drained)
	}
	t.Logf("parked %d, revived %d, adopted %d, drained %d", parked, revived, adopted, drained)
}
