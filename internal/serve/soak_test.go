package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/wdm"
)

// isNoRoute reports whether err is a routing failure — expected when a
// cut leaves a source/destination pair disconnected.
func isNoRoute(err error) bool {
	var nr route.ErrNoRoute
	return errors.As(err, &nr)
}

// TestServeChaosSoak is the serving contract under fire: concurrent
// writers push add/remove traffic through retrying clients on ramped
// open-loop Poisson arrival clocks (gen.PoissonArrivals) while a
// fault injector replays a gen.FaultSchedule of fiber cuts and repairs
// through the same coalescer, the wavelength budget forces transient
// rejections, and shedding is armed. At the end, every submission must
// have received exactly one definitive response, the engine must
// Verify clean, and the live/dark occupancy must equal the acked
// add/remove ledger and the engine's own failure accounting. Runs in
// the default test tier, so it is exercised under -race at -cpu=1,4
// in CI.
func TestServeChaosSoak(t *testing.T) {
	const (
		comps      = 3
		writers    = 4
		opsEach    = 200
		addFrac    = 0.7
		budget     = 6
		mtbf, mttr = 4.0, 1.0
		horizon    = 12.0
	)
	net, pool := testNetwork(t, comps, 97)
	eng, err := net.NewShardedEngine(wdm.WithEngineWavelengthBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng,
		WithQueueCapacity(256),
		WithShedDepth(192),
		WithServerRetry(3, 100*time.Microsecond, 2*time.Millisecond),
		WithSeed(5),
	)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}

	faults, err := gen.FaultSchedule(net.Topology, mtbf, mttr, horizon, 23)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fault schedule: %d events", len(faults))

	var (
		mu           sync.Mutex
		liveIDs      []wdm.ShardedID
		ackedAdds    int
		ackedRemoves int
		ackedCuts    int
		ackedRepairs int
	)
	popID := func(r *rand.Rand) (wdm.ShardedID, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(liveIDs) == 0 {
			return wdm.ShardedID{}, false
		}
		i := r.Intn(len(liveIDs))
		id := liveIDs[i]
		liveIDs[i] = liveIDs[len(liveIDs)-1]
		liveIDs = liveIDs[:len(liveIDs)-1]
		return id, true
	}

	ctx := context.Background()
	var wg sync.WaitGroup

	// Fault injector: the schedule's cuts and repairs ride the same
	// coalescer as the writes (barrier ops), in schedule order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := NewClient(srv, RetryPolicy{MaxAttempts: 4, Base: 200 * time.Microsecond, Max: 2 * time.Millisecond}, 31)
		for _, ev := range faults {
			var req Request
			if ev.Restore {
				req = RestoreArcRequest(ev.Arc)
			} else {
				req = FailArcRequest(ev.Arc)
			}
			resp := client.Do(ctx, req)
			switch {
			case resp.Err == nil:
				mu.Lock()
				if ev.Restore {
					ackedRepairs++
				} else {
					ackedCuts++
				}
				mu.Unlock()
			case resp.Shed():
				// Definitive verdict; the schedule stays valid only if
				// applied in full, so a dropped event ends the replay
				// (alternating cut/repair on the same arc must not skip).
				t.Logf("fault replay stopped at shed event")
				return
			default:
				t.Errorf("fault event %+v: %v", ev, resp.Err)
				return
			}
		}
	}()

	responses := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			client := NewClient(srv, RetryPolicy{MaxAttempts: 3, Base: 200 * time.Microsecond, Max: 2 * time.Millisecond}, int64(w))
			// Open-loop Poisson pacing with a rate ramp: each writer's
			// clock accelerates 2k→20k events/s over the first 50ms, so
			// the aggregate offered load climbs past what the coalescer
			// absorbs and the shed/retry paths genuinely engage. When
			// the clock falls behind (Do blocks through retries) the
			// backlog fires as a burst — open-loop overload, not a
			// polite closed loop.
			arr, aerr := gen.NewPoissonArrivals(2000, int64(500+w))
			if aerr != nil {
				t.Error(aerr)
				return
			}
			if aerr := arr.SetRamp(0, 0.05, 20000); aerr != nil {
				t.Error(aerr)
				return
			}
			start := time.Now()
			for i := 0; i < opsEach; i++ {
				next := start.Add(time.Duration(arr.Next() * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				if rng.Float64() < addFrac {
					req := pool[rng.Intn(len(pool))]
					resp := client.Do(dctx, AddRequest(req.Src, req.Dst))
					switch {
					case resp.Err == nil:
						mu.Lock()
						ackedAdds++
						liveIDs = append(liveIDs, resp.ID)
						mu.Unlock()
					case errors.Is(resp.Err, wdm.ErrBudgetExceeded), resp.Shed(), resp.Expired(), isNoRoute(resp.Err):
						// Definitive negative verdicts, all expected
						// under budget pressure, overload and cuts.
					default:
						t.Errorf("writer %d add: %v", w, resp.Err)
					}
					responses[w]++
				} else if id, ok := popID(rng); ok {
					resp := client.Do(dctx, RemoveRequest(id))
					switch {
					case resp.Err == nil:
						mu.Lock()
						ackedRemoves++
						mu.Unlock()
					case resp.Shed(), resp.Expired():
						// The id is consumed either way; a shed remove
						// just leaks the session into the final live set.
						mu.Lock()
						liveIDs = append(liveIDs, id)
						mu.Unlock()
					default:
						t.Errorf("writer %d remove %v: %v", w, id, resp.Err)
					}
					responses[w]++
				} else {
					responses[w]++ // nothing to remove yet counts as a no-op turn
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()

	// Exactly-one-definitive-response: every writer turn completed, and
	// the server's outcome ledger balances.
	for w, n := range responses {
		if n != opsEach {
			t.Fatalf("writer %d: %d definitive turns, want %d", w, n, opsEach)
		}
	}
	st := srv.Stats()
	checkBalance(t, st)
	t.Logf("soak stats: %+v", st)

	// The conflict invariant survived the storm interleaving.
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}

	// Live/dark occupancy must equal the acked ledger: acked adds minus
	// acked removes, split between live and parked-dark entries.
	es := eng.Stats()
	expect := ackedAdds - ackedRemoves
	if got := eng.Len() + eng.DarkLive(); got != expect {
		t.Fatalf("live %d + dark %d = %d, want acked adds %d - acked removes %d = %d",
			eng.Len(), eng.DarkLive(), eng.Len()+eng.DarkLive(), ackedAdds, ackedRemoves, expect)
	}
	// The engine's failure accounting matches what the server acked.
	if es.Cuts != ackedCuts || es.Restores != ackedRepairs {
		t.Fatalf("engine saw %d cuts / %d restores, server acked %d / %d",
			es.Cuts, es.Restores, ackedCuts, ackedRepairs)
	}
	if laneDark := es.Plain.Dark + es.Region.Dark + es.Overlay.Dark; laneDark != eng.DarkLive() {
		t.Fatalf("lane dark sum %d != DarkLive %d", laneDark, eng.DarkLive())
	}
	if aff := es.Plain.Affected + es.Region.Affected + es.Overlay.Affected; aff !=
		es.Plain.Restored+es.Region.Restored+es.Overlay.Restored+es.Plain.Parked+es.Region.Parked+es.Overlay.Parked {
		t.Fatalf("failure ledger unbalanced: affected %d != restored+parked", aff)
	}

	// Graceful drain: everything already acked, so Shutdown just closes;
	// queries keep answering from the final snapshot.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := eng.Len() + eng.DarkLive(); got != expect {
		t.Fatalf("post-close occupancy %d, want %d", got, expect)
	}
	if resp := srv.Submit(ctx, AddRequest(pool[0].Src, pool[0].Dst)); !errors.Is(resp.Err, ErrServerClosed) {
		t.Fatalf("post-shutdown submit: %v", resp.Err)
	}
}
