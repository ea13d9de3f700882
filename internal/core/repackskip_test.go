package core

import (
	"math/rand"
	"slices"
	"testing"

	"wavedag/internal/gen"
)

// TestAddUnderLimitSkipsOnlyIdleRepacks runs one random stream of Add,
// Remove and AddUnderLimit on two colorers, one of which is made to
// repack on every refused first-fit by clearing its idle-repack record
// before each op. A skipped repack must be one that would have moved
// nothing: slots, verdicts, colors and recolor counters agree after
// every op. The stream must skip repacks, or it would prove nothing.
func TestAddUnderLimitSkipsOnlyIdleRepacks(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.RandomDAG(18, 45, seed)
		pool := gen.RandomWalkFamily(g, 200, 5, seed)
		a, b := NewIncremental(g, 0), NewIncremental(g, 0)
		rng := rand.New(rand.NewSource(seed))
		var live []int
		skipped := 0
		for op := 0; op < 3000; op++ {
			b.idleRepack = false
			switch k := rng.Intn(10); {
			case k < 3 && len(live) > 0:
				i := rng.Intn(len(live))
				if ea, eb := a.Remove(live[i]), b.Remove(live[i]); ea != nil || eb != nil {
					t.Fatalf("seed %d op %d: remove: %v, %v", seed, op, ea, eb)
				}
				live = slices.Delete(live, i, i+1)
			case k < 4:
				p := pool[rng.Intn(len(pool))]
				sa, ea := a.Add(p)
				sb, eb := b.Add(p)
				if ea != nil || eb != nil || sa != sb {
					t.Fatalf("seed %d op %d: add: slots %d, %d (%v, %v)", seed, op, sa, sb, ea, eb)
				}
				live = append(live, sa)
			default:
				p, limit := pool[rng.Intn(len(pool))], 3+rng.Intn(3)
				idle := a.idleRepack && a.mutations == a.idleRepackAt
				sa, oka, ea := a.AddUnderLimit(p, limit)
				sb, okb, eb := b.AddUnderLimit(p, limit)
				if ea != nil || eb != nil || oka != okb || sa != sb {
					t.Fatalf("seed %d op %d: AddUnderLimit: (%d %v %v), forced repack (%d %v %v)", seed, op, sa, oka, ea, sb, okb, eb)
				}
				if oka {
					live = append(live, sa)
				} else if idle && a.numUsed > 0 {
					skipped++ // first-fit failed and the repack was skipped
				}
			}
			if !slices.Equal(a.Snapshot(), b.Snapshot()) {
				t.Fatalf("seed %d op %d: colors differ:\n%v\n%v", seed, op, a.Snapshot(), b.Snapshot())
			}
			if a.NumLambda() != b.NumLambda() || a.WarmRecolors() != b.WarmRecolors() || a.FullRecolors() != b.FullRecolors() {
				t.Fatalf("seed %d op %d: λ %d/%d, warm %d/%d, cold %d/%d", seed, op,
					a.NumLambda(), b.NumLambda(), a.WarmRecolors(), b.WarmRecolors(), a.FullRecolors(), b.FullRecolors())
			}
		}
		if skipped == 0 {
			t.Fatalf("seed %d: no repack was skipped", seed)
		}
		t.Logf("seed %d: %d repacks skipped, %d live", seed, skipped, len(live))
	}
}
