package serve

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"wavedag/internal/wdm"
)

// BenchmarkServeCoalesce measures the closed-loop submit→ack round
// trip through the coalescer under concurrent submitters with blocking
// backpressure (nothing sheds): every RunParallel goroutine drives an
// add-heavy mix with removes bounding its working set. "ops/batch"
// reports how much coalescing the dispatcher achieved at this
// parallelism.
func BenchmarkServeCoalesce(b *testing.B) {
	srv, pool := testServer(b, 4, 71, nil,
		WithBlockingBackpressure(), WithSeed(71))
	ctx := context.Background()
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(71 + worker.Add(1)))
		var ids []wdm.ShardedID
		for pb.Next() {
			if len(ids) >= 32 {
				id := ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if resp := srv.Submit(ctx, RemoveRequest(id)); resp.Err != nil {
					b.Error(resp.Err)
					return
				}
				continue
			}
			r := pool[rng.Intn(len(pool))]
			resp := srv.Submit(ctx, AddRequest(r.Src, r.Dst))
			if resp.Err != nil {
				b.Error(resp.Err)
				return
			}
			ids = append(ids, resp.ID)
		}
	})
	b.StopTimer()
	if st := srv.Stats(); st.Batches > 0 {
		b.ReportMetric(float64(st.BatchedOps)/float64(st.Batches), "ops/batch")
	}
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	if err := srv.Engine().Verify(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeShedding measures the submission path under sustained
// overload against a deliberately tiny queue: each iteration submits
// asynchronously into a 256-deep in-flight ring, so the queue runs at
// its shed threshold and most verdicts are sheds — the cost being
// measured is the shed fast path plus the amortised future round trip.
// "shed_pct" reports the overload split.
func BenchmarkServeShedding(b *testing.B) {
	srv, pool := testServer(b, 4, 73, nil,
		WithQueueCapacity(64), WithShedDepth(48), WithSeed(73))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(73))
	const ring = 256
	futures := make([]<-chan Response, 0, ring)
	var acked, shed int64
	settle := func() {
		for _, f := range futures {
			switch r := <-f; {
			case r.Err == nil:
				acked++
			case r.Shed():
				shed++
			default:
				b.Error(r.Err)
			}
		}
		futures = futures[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pool[rng.Intn(len(pool))]
		futures = append(futures, srv.SubmitAsync(ctx, AddRequest(r.Src, r.Dst)))
		if len(futures) == ring {
			settle()
		}
	}
	settle()
	b.StopTimer()
	if total := acked + shed; total > 0 {
		b.ReportMetric(100*float64(shed)/float64(total), "shed_pct")
	}
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	if err := srv.Engine().Verify(); err != nil {
		b.Fatal(err)
	}
}
