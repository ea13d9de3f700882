// Serving front-end driver: the open-loop overload sweep for the write
// coalescer. Capacity is measured once per topology (closed-loop,
// pipelined submitters under blocking backpressure, so the queue never
// empties and the number is engine-bound), then each cell offers a
// Poisson arrival stream at {0.5, 1, 2}× that capacity with shedding
// on (bounded queue, shed verdicts with retry-after hints) or off
// (blocking backpressure). ns/op is wall time per offered event — at
// sub-saturation loads it is dominated by the arrival clock itself;
// the serving metrics land in Extra: "offered_eps"/"acked_eps"
// (events per second), "shed_pct", accepted-write "p50_ns"/"p99_ns"
// (submit→ack round trip), and "drain_ms" (graceful drain of whatever
// was still in flight when the offered load stopped).
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
	"wavedag/internal/serve"
	"wavedag/internal/wdm"
)

// serveBenches builds the serving sweep for one topology. The capacity
// probe runs lazily on first use and is shared by every cell, so all
// six load points are fractions of the same measured number.
func serveBenches(label string, g *digraph.Digraph, pool []route.Request, seed int64) []bench {
	var (
		once     sync.Once
		capacity float64
	)
	measured := func() float64 {
		once.Do(func() { capacity = serveCapacity(g, pool, seed) })
		return capacity
	}
	var benches []bench
	for _, load := range []float64{0.5, 1, 2} {
		for _, shed := range []bool{true, false} {
			mode := "on"
			if !shed {
				mode = "off"
			}
			load, shed := load, shed
			benches = append(benches, bench{
				fmt.Sprintf("serve/%s/load=%gx/shed=%s", label, load, mode),
				func(b *testing.B) {
					serveOpenLoop(b, g, pool, measured()*load, shed, seed)
				},
			})
		}
	}
	return benches
}

// serveCapacity measures the closed-loop saturation throughput of the
// coalescer on this topology: four writers each keep a 64-deep window
// of submissions in flight (add-heavy, removes bounding the working
// set) under blocking backpressure, so the queue never empties and
// batches fill to maxBatch. Returns acked events per second.
func serveCapacity(g *digraph.Digraph, pool []route.Request, seed int64) float64 {
	net := &wdm.Network{Topology: g}
	eng, err := net.NewShardedEngine()
	if err != nil {
		fatal(err)
	}
	srv, err := serve.New(eng,
		serve.WithBlockingBackpressure(),
		serve.WithSeed(seed))
	if err != nil {
		fatal(err)
	}
	const (
		writers = 4
		window  = 64
		probe   = 300 * time.Millisecond
	)
	ctx := context.Background()
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var ids []wdm.ShardedID
			futures := make([]<-chan serve.Response, 0, window)
			isAdd := make([]bool, 0, window)
			for !stop.Load() {
				futures, isAdd = futures[:0], isAdd[:0]
				for j := 0; j < window; j++ {
					if len(ids) >= 256 {
						id := ids[len(ids)-1]
						ids = ids[:len(ids)-1]
						futures = append(futures, srv.SubmitAsync(ctx, serve.RemoveRequest(id)))
						isAdd = append(isAdd, false)
						continue
					}
					r := pool[rng.Intn(len(pool))]
					futures = append(futures, srv.SubmitAsync(ctx, serve.AddRequest(r.Src, r.Dst)))
					isAdd = append(isAdd, true)
				}
				for k, f := range futures {
					if r := <-f; r.Err == nil && isAdd[k] {
						ids = append(ids, r.ID)
					}
				}
			}
		}(w)
	}
	time.Sleep(probe)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	acked := srv.Stats().Acked
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
	if acked == 0 {
		fatal(fmt.Errorf("serve capacity probe acked nothing"))
	}
	eps := float64(acked) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "serve: measured closed-loop capacity %.0f acked events/s\n", eps)
	return eps
}

// serveOpenLoop offers b.N events on an open-loop Poisson clock at the
// given rate. With shedding on, overload turns into shed verdicts and
// the clock keeps its pace; with shedding off (blocking backpressure)
// an overloaded server stalls the submitter and the clock falls
// behind — the achieved offered rate is reported as-is, which is the
// honest picture of what each mode does under 2× load.
func serveOpenLoop(b *testing.B, g *digraph.Digraph, pool []route.Request, rate float64, shedding bool, seed int64) {
	net := &wdm.Network{Topology: g}
	eng, err := net.NewShardedEngine()
	if err != nil {
		b.Fatal(err)
	}
	// The queue bound is what converts overload into sheds instead of
	// latency: at ~200k events/s a 256-deep queue is ~1.3ms of queueing
	// worst case, so the accepted-write tail stays within a small
	// constant factor of the uncongested tail while the excess load is
	// shed with hints.
	opts := []serve.Option{
		serve.WithQueueCapacity(256),
		serve.WithSeed(seed),
	}
	if !shedding {
		opts = append(opts, serve.WithBlockingBackpressure())
	}
	srv, err := serve.New(eng, opts...)
	if err != nil {
		eng.Close()
		b.Fatal(err)
	}
	arr, err := gen.NewPoissonArrivals(rate, seed+9)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed + 17))

	var (
		wg       sync.WaitGroup
		idMu     sync.Mutex
		ids      []wdm.ShardedID
		acked    atomic.Int64
		shedN    atomic.Int64
		sampleMu sync.Mutex
		samples  []float64
	)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pace the open-loop clock; skip sleeps too short for the
		// runtime's timer granularity — the average rate is what the
		// Poisson stream sets, not per-gap precision.
		next := start.Add(time.Duration(arr.Next() * float64(time.Second)))
		if d := time.Until(next); d > 50*time.Microsecond {
			time.Sleep(d)
		}
		var req serve.Request
		isAdd := true
		if rng.Float64() < 0.3 {
			idMu.Lock()
			if n := len(ids); n > 0 {
				req, isAdd = serve.RemoveRequest(ids[n-1]), false
				ids = ids[:n-1]
			}
			idMu.Unlock()
		}
		if isAdd {
			r := pool[rng.Intn(len(pool))]
			req = serve.AddRequest(r.Src, r.Dst)
		}
		t0 := time.Now()
		f := srv.SubmitAsync(ctx, req)
		wg.Add(1)
		go func(f <-chan serve.Response, isAdd bool, t0 time.Time) {
			defer wg.Done()
			r := <-f
			switch {
			case r.Err == nil:
				acked.Add(1)
				lat := float64(time.Since(t0).Nanoseconds())
				sampleMu.Lock()
				samples = append(samples, lat)
				sampleMu.Unlock()
				if isAdd {
					idMu.Lock()
					ids = append(ids, r.ID)
					idMu.Unlock()
				}
			case r.Shed():
				shedN.Add(1)
			}
		}(f, isAdd, t0)
	}
	wg.Wait()
	offered := time.Since(start)
	b.StopTimer()
	t0 := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	drain := time.Since(t0)
	if err := eng.Verify(); err != nil {
		b.Fatal(err)
	}

	if s := offered.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "offered_eps")
		b.ReportMetric(float64(acked.Load())/s, "acked_eps")
	}
	b.ReportMetric(100*float64(shedN.Load())/float64(b.N), "shed_pct")
	if len(samples) > 0 {
		sort.Float64s(samples)
		b.ReportMetric(samples[len(samples)/2], "p50_ns")
		b.ReportMetric(samples[len(samples)*99/100], "p99_ns")
	}
	b.ReportMetric(float64(drain.Nanoseconds())/1e6, "drain_ms")
}
