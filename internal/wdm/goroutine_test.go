package wdm

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/gen"
	"wavedag/internal/route"
)

// goroutinesStarted returns how many goroutines were started while f
// ran, up to 14 exactly and beyond that as some larger number. It reads
// goroutine ids: a P hands them out in sequence from a cached batch of
// 16, and batches are cut from a global counter at multiples of 16.
// With GOMAXPROCS at 1 and a probe goroutine that opened a fresh batch,
// the next probe's id is one more than the first plus every goroutine
// started in between. The collection runs first, so a GC cycle in f
// starts no mark workers.
func goroutinesStarted(t *testing.T, f func()) int {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	before := probeGoroutineID(t)
	for before%16 != 1 {
		before = probeGoroutineID(t)
	}
	f()
	return int(probeGoroutineID(t) - before - 1)
}

// probeGoroutineID starts a goroutine and returns its id.
func probeGoroutineID(t *testing.T) uint64 {
	t.Helper()
	ids := make(chan []byte)
	go func() {
		buf := make([]byte, 64)
		ids <- buf[:runtime.Stack(buf, false)]
	}()
	header := bytes.TrimPrefix(<-ids, []byte("goroutine "))
	id, err := strconv.ParseUint(string(header[:bytes.IndexByte(header, ' ')]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestColdRecolorStartsNoGoroutine checks that WithShardWorkers bounds
// an engine's goroutines: on a one-worker flat engine over a glued
// topology with internal cycles, batches that run the cold recolor's
// DSATUR over a family with a large conflict component start no
// goroutine. The probe itself is checked on a function that starts
// three.
func TestColdRecolorStartsNoGoroutine(t *testing.T) {
	if n := goroutinesStarted(t, func() {
		done := make(chan bool)
		for i := 0; i < 3; i++ {
			go func() { done <- true }()
		}
		for i := 0; i < 3; i++ {
			<-done
		}
	}); n != 3 {
		t.Skipf("the goroutine id probe counts %d starts for 3 on this runtime", n)
	}
	parts := make([]*digraph.Digraph, 8)
	for i := range parts {
		g, err := gen.RandomNoInternalCycleDAG(64, 6, 6, 0.2, int64(53+i))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = g
	}
	topo, partVerts, err := gen.GlueChain(parts...)
	if err != nil {
		t.Fatal(err)
	}
	pairs := gen.LocalityRequestPool(topo, partVerts, 0.9, 8000, 57)
	eng, err := (&Network{Topology: topo}).NewShardedEngine(
		WithSubshardThreshold(0), WithShardWorkers(1), WithEngineWavelengthBudget(20),
		WithShardSessionOptions(WithRoutingPolicy(RouteMinLoad)))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cold := func() (n int) {
		for i := 0; i < eng.NumShards(); i++ {
			_, c, _ := eng.ShardRecolorStats(i)
			n += c
		}
		return n
	}
	var ids []ShardedID
	coldBatches := 0
	for b := 0; b < 200 && coldBatches < 3; b++ {
		ops := make([]BatchOp, 0, 256)
		for i := 0; i < 128; i++ {
			p := pairs[(b*128+i)*13%len(pairs)]
			ops = append(ops, AddOp(route.Request{Src: p[0], Dst: p[1]}))
		}
		for i := 0; i < 128 && len(ids) > 1000; i++ {
			ops = append(ops, RemoveOp(ids[0]))
			ids = ids[1:]
		}
		before := cold()
		var results []BatchResult
		if n := goroutinesStarted(t, func() { results = eng.ApplyBatch(ops) }); n != 0 {
			t.Fatalf("batch %d started %d goroutines", b, n)
		}
		for i, res := range results {
			switch {
			case ops[i].Kind == BatchAdd && res.Err == nil:
				ids = append(ids, res.ID)
			case res.Err != nil && !errors.Is(res.Err, ErrBudgetExceeded):
				t.Fatal(res.Err)
			}
		}
		if cold() > before {
			coldBatches++
			t.Logf("batch %d: cold recolor, %d live", b, len(ids))
		}
	}
	if coldBatches == 0 {
		t.Fatal("no batch ran a cold recolor")
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}
