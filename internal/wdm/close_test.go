package wdm

import (
	"errors"
	"sync"
	"testing"

	"wavedag/internal/route"
)

// TestEngineCloseRacesBatches hammers Close against in-flight batches
// from many goroutines: every batch op must resolve definitively
// (applied or ErrEngineClosed, never a hang or partial silence), and
// once everything settles the engine must be cleanly closed with a
// consistent final snapshot.
func TestEngineCloseRacesBatches(t *testing.T) {
	net := multiComponentNetwork(t, 2, 137)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(net.Topology).AllToAll()

	const writers = 4
	var wg sync.WaitGroup
	applied := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := make([]BatchOp, 0, 4)
			var results []BatchResult
			for i := 0; i < 50; i++ {
				ops = ops[:0]
				for j := 0; j < 4; j++ {
					ops = append(ops, AddOp(pool[(w*50+i*4+j)%len(pool)]))
				}
				results = eng.ApplyBatchInto(ops, results)
				for _, res := range results {
					switch {
					case res.Err == nil:
						applied[w]++
					case errors.Is(res.Err, ErrEngineClosed):
					default:
						t.Errorf("writer %d: %v", w, res.Err)
					}
				}
			}
		}(w)
	}
	wg.Add(2)
	for c := 0; c < 2; c++ {
		go func() {
			defer wg.Done()
			if err := eng.Close(); err != nil {
				t.Errorf("racing close: %v", err)
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, n := range applied {
		total += n
	}
	if got := eng.Len(); got != total {
		t.Fatalf("final snapshot live = %d, want %d applied adds", got, total)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close after race: %v", err)
	}
}
