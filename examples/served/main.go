// Served: the serving front-end's contract on a live engine — a
// submission acked through the write coalescer, a burst that overruns
// the queue and gets shed with retry-after hints, a client riding out
// the overload with jittered backoff, and a graceful drain that
// answers every in-flight request before closing the engine.
//
//	go run ./examples/served
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"wavedag"
)

func main() {
	// A ladder of diamonds: enough parallel structure that requests
	// conflict on shared arcs but always have a route.
	const rungs = 6
	g := wavedag.NewGraph(2 + 2*rungs)
	src, dst := wavedag.Vertex(0), wavedag.Vertex(1)
	for i := 0; i < rungs; i++ {
		a, b := wavedag.Vertex(2+2*i), wavedag.Vertex(3+2*i)
		g.MustAddArc(src, a)
		g.MustAddArc(a, b)
		g.MustAddArc(b, dst)
	}

	net := &wavedag.Network{Topology: g}
	eng, err := net.NewShardedEngine()
	if err != nil {
		log.Fatal(err)
	}

	// A deliberately tiny server: a 2-deep queue and 4-op batches make
	// overload (and therefore shedding) easy to demonstrate.
	srv, err := wavedag.NewServer(eng,
		wavedag.WithQueueCapacity(2),
		wavedag.WithMaxBatch(4),
		wavedag.WithServeSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// 1. The happy path: one submission, one definitive ack.
	resp := srv.Submit(ctx, wavedag.AddRequest(src, dst))
	if resp.Err != nil {
		log.Fatal(resp.Err)
	}
	fmt.Printf("acked:      add -> id %v (live=%d)\n", resp.ID, eng.Len())

	// 2. Overload: a burst far past the queue bound. Every submission
	// still gets a definitive answer — acked or shed, never silence —
	// and shed verdicts carry a retry-after hint.
	const burst = 60
	futures := make([]<-chan wavedag.ServeResponse, burst)
	for i := range futures {
		futures[i] = srv.SubmitAsync(ctx, wavedag.AddRequest(src, dst))
	}
	acked, shed := 0, 0
	var hint time.Duration
	for _, f := range futures {
		r := <-f
		switch {
		case r.Err == nil:
			acked++
		case errors.Is(r.Err, wavedag.ErrShed):
			shed++
			hint = r.RetryAfter
		default:
			log.Fatalf("unexpected outcome: %v", r.Err)
		}
	}
	fmt.Printf("burst:      %d submissions -> %d acked, %d shed (all definitive)\n", burst, acked, shed)
	if shed > 0 {
		fmt.Printf("shed hint:  retry after ~%v (transient: %v)\n",
			hint.Round(time.Microsecond), wavedag.IsTransient(wavedag.ErrShed))
	}

	// 3. A retrying client rides out the same overload: Do backs off
	// (jittered, honouring the hint) and resubmits until the ack.
	for i := 0; i < burst; i++ { // re-saturate the queue
		srv.SubmitAsync(ctx, wavedag.AddRequest(src, dst))
	}
	client := wavedag.NewServeClient(srv, wavedag.RetryPolicy{
		MaxAttempts: 8, Base: time.Millisecond, Max: 20 * time.Millisecond,
	}, 7)
	r := client.Do(ctx, wavedag.AddRequest(src, dst))
	if r.Err != nil {
		log.Fatal(r.Err)
	}
	fmt.Printf("client.Do:  acked after %d attempt(s)\n", r.Attempts)

	// 4. Graceful drain: in-flight work is answered, then the engine
	// closes; reads keep serving from the final snapshot, and later
	// submissions are definitively refused.
	last := srv.SubmitAsync(ctx, wavedag.AddRequest(src, dst))
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if lr := <-last; lr.Err == nil {
		fmt.Println("drain:      in-flight request acked before close")
	} else {
		fmt.Printf("drain:      in-flight request answered: %v\n", lr.Err)
	}
	post := srv.Submit(ctx, wavedag.AddRequest(src, dst))
	fmt.Printf("post-drain: submit -> %v\n", post.Err)
	st := srv.Stats()
	fmt.Printf("ledger:     submitted=%d acked=%d failed=%d shed=%d expired=%d (balanced=%v)\n",
		st.Submitted, st.Acked, st.Failed, st.Shed, st.Expired,
		st.Submitted == st.Acked+st.Failed+st.Shed+st.Expired)
	fmt.Printf("post-close: engine still answers reads: live=%d, π=%d\n", eng.Len(), eng.Pi())
}
