package gen

import (
	"testing"

	"wavedag/internal/digraph"
)

// churnGiant builds the giant component of the churn-giant benchmark
// workload: eight 64-vertex Theorem-1 parts glued into one chain plus a
// 12-vertex satellite, 2042 arcs in all, and the glued parts' vertex
// groups.
func churnGiant(tb testing.TB) (*digraph.Digraph, [][]digraph.Vertex) {
	tb.Helper()
	parts := make([]*digraph.Digraph, 8)
	for i := range parts {
		g, err := RandomNoInternalCycleDAG(64, 6, 6, 0.2, 53+int64(i))
		if err != nil {
			tb.Fatal(err)
		}
		parts[i] = g
	}
	glued, groups, err := GlueChain(parts...)
	if err != nil {
		tb.Fatal(err)
	}
	sat, err := RandomNoInternalCycleDAG(12, 2, 2, 0.2, 1053)
	if err != nil {
		tb.Fatal(err)
	}
	g, _ := DisjointUnion(Instance{G: glued}, Instance{G: sat})
	if g.NumArcs() != 2042 {
		tb.Fatalf("churn-giant topology has %d arcs, want 2042", g.NumArcs())
	}
	return g, groups
}

// Benchmark results land here so the compiler keeps the calls.
var (
	faultSink []FaultEvent
	poolSink  [][2]digraph.Vertex
)

// BenchmarkFaultSchedule draws churn-giant's fault schedule: about 40k
// cut and repair events over 2042 arcs.
func BenchmarkFaultSchedule(b *testing.B) {
	g, _ := churnGiant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events, err := FaultSchedule(g, 400_000, 2_000, 4_000_000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		faultSink = events
	}
}

// BenchmarkLocalityRequestPool draws churn-giant's request pool: 8000
// pairs, nine in ten inside one glued part.
func BenchmarkLocalityRequestPool(b *testing.B) {
	g, groups := churnGiant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poolSink = LocalityRequestPool(g, groups, 0.9, 8000, 57)
	}
}
