package wdm

import (
	"slices"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/route"
)

// These tests pin the publish-on-every-path contract wavedaglint's
// publish analyzer enforces: a mutation of engine state under the mutex
// must reach publishLocked() before the method returns, even when a
// later step of the same operation errors out. The trigger is a
// component session desynchronized from the global topology — the
// global cut/repair succeeds, the component storm then fails — which
// historically returned without republishing, leaving lock-free readers
// on a snapshot that disagreed with the mutex-guarded strong reads.

// desyncArc returns a global arc owned by a component without region
// lanes, with its component and local identifier.
func desyncArc(t *testing.T, eng *ShardedEngine) (digraph.ArcID, *engineComponent, digraph.ArcID) {
	t.Helper()
	for a := range eng.arcComp {
		c := eng.comps[eng.arcComp[a]]
		if len(c.regionShards) == 0 {
			return digraph.ArcID(a), c, eng.arcLoc[a]
		}
	}
	t.Skip("no component without region lanes in this topology")
	return 0, nil, 0
}

func TestFailArcPublishesOnStormError(t *testing.T) {
	net := multiComponentNetwork(t, 2, 33)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ga, c, la := desyncArc(t, eng)

	// Cut the arc in the component's private view only: the next engine
	// FailArc cuts the global topology, then errors in the storm.
	if _, err := c.overlay.sess.FailArc(la); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FailArc(ga); err == nil {
		t.Fatal("engine FailArc succeeded despite desynchronized component")
	}

	// The global cut happened, so it must have been published: the
	// lock-free snapshot read and the strong read must agree.
	if got, want := eng.NumFailedArcs(), strongNumFailedArcs(eng); got != want {
		t.Fatalf("snapshot NumFailedArcs=%d, strong=%d: FailArc error path did not publish", got, want)
	}
	if strongNumFailedArcs(eng) != 1 {
		t.Fatalf("strong NumFailedArcs=%d, want 1", strongNumFailedArcs(eng))
	}
	if eng.Stats().Cuts != 1 {
		t.Fatalf("Stats().Cuts=%d, want 1 (the cut did land)", eng.Stats().Cuts)
	}
}

func TestRestoreArcPublishesOnSweepError(t *testing.T) {
	net := multiComponentNetwork(t, 2, 34)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ga, c, la := desyncArc(t, eng)

	// Cut globally (both views agree), then repair the component's
	// private view only: the next engine RestoreArc repairs the global
	// topology, then errors in the re-admission sweep.
	if _, err := eng.FailArc(ga); err != nil {
		t.Fatal(err)
	}
	if _, err := c.overlay.sess.RestoreArc(la); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RestoreArc(ga); err == nil {
		t.Fatal("engine RestoreArc succeeded despite desynchronized component")
	}

	// The global repair happened, so it must have been published.
	if got, want := eng.NumFailedArcs(), strongNumFailedArcs(eng); got != want {
		t.Fatalf("snapshot NumFailedArcs=%d, strong=%d: RestoreArc error path did not publish", got, want)
	}
	if strongNumFailedArcs(eng) != 0 {
		t.Fatalf("strong NumFailedArcs=%d, want 0", strongNumFailedArcs(eng))
	}
}

// TestStrategyNameConstants pins the registry contract wavedaglint's
// registry analyzer enforces: the exported name constants, the
// RoutingPolicy String form, and the registered strategy names must all
// be the same string.
func TestStrategyNameConstants(t *testing.T) {
	routing := map[string]RoutingPolicy{
		RouteShortestName: RouteShortest,
		RouteMinLoadName:  RouteMinLoad,
		RouteUPPName:      RouteUPP,
	}
	for name, policy := range routing {
		if policy.String() != name {
			t.Errorf("%v.String()=%q, want constant %q", int(policy), policy.String(), name)
		}
		if _, ok := routingStrategies[name]; !ok {
			t.Errorf("no routing strategy registered under constant %q", name)
		}
	}
	for _, name := range []string{AdmissionReject, AdmissionRetryAltRoute, AdmissionDegrade} {
		if _, ok := admissionStrategies[name]; !ok {
			t.Errorf("no admission strategy registered under constant %q", name)
		}
	}
}

// TestStormRebuildsOnlyTouchedLanes pins the publication cost of a
// fiber event to the lanes it touches. A cut on a region arc rebuilds
// the owning lane's table and the overlay's; a region lane without dark
// entries keeps its table, pointer for pointer. A dark entry of a third
// lane that the storm's cross-lane sweep revives gets its lane's table
// rebuilt. Every read equals the strong oracles after each event.
func TestStormRebuildsOnlyTouchedLanes(t *testing.T) {
	net := giantComponentNetwork(t, 4, 811)
	eng := twoLevelEngine(t, net)
	defer eng.Close()
	g := net.Topology
	var ids []ShardedID
	for i, req := range route.NewRouter(g).AllToAll() {
		if i%5 != 0 {
			continue
		}
		if id, err := eng.Add(req); err == nil {
			ids = append(ids, id)
		}
	}
	var c *engineComponent
	for _, cc := range eng.comps {
		if len(cc.regionShards) >= 3 {
			c = cc
		}
	}
	if c == nil {
		t.Fatal("fixture has no component with three region lanes")
	}
	// regionArcs[rs] lists the global arcs a region lane owns.
	regionArcs := map[*engineShard][]digraph.ArcID{}
	for a := range eng.arcComp {
		if eng.comps[eng.arcComp[a]] != c {
			continue
		}
		if rs, _ := c.regionArc(eng.arcLoc[a]); rs != nil {
			regionArcs[rs] = append(regionArcs[rs], digraph.ArcID(a))
		}
	}
	tables := func() map[*engineShard]*snapTable {
		s := eng.Snapshot()
		defer s.Release()
		m := map[*engineShard]*snapTable{}
		for _, rs := range c.regionShards {
			m[rs] = s.tables[rs.idx]
		}
		return m
	}
	// requireKept fails unless every region lane other than the listed
	// ones kept its table across the event.
	requireKept := func(event string, before, after map[*engineShard]*snapTable, rebuilt ...*engineShard) {
		t.Helper()
		for _, rs := range c.regionShards {
			if slices.Contains(rebuilt, rs) {
				continue
			}
			if before[rs] != after[rs] {
				t.Fatalf("%s: untouched region lane %d rebuilt its table", event, rs.idx)
			}
		}
	}

	// Lanes by size, largest first: C parks an entry, A is cut on an
	// idle arc, B is cut once nothing is dark.
	lanes := slices.Clone(c.regionShards)
	slices.SortStableFunc(lanes, func(x, y *engineShard) int { return len(regionArcs[y]) - len(regionArcs[x]) })
	laneC, laneB := lanes[0], lanes[1]

	// A third lane's entry goes dark: cut the arcs of one of its routes
	// until the storm parks it.
	var parked []digraph.ArcID
	for _, a := range regionArcs[laneC] {
		if eng.DarkLive() > 0 {
			break
		}
		if _, err := eng.FailArc(a); err != nil {
			t.Fatal(err)
		}
		parked = append(parked, a)
		checkSnapshotAgainstStrong(t, eng, ids)
	}
	if eng.DarkLive() == 0 || laneC.sess.DarkLive() != eng.DarkLive() {
		t.Fatalf("no dark entry in lane %d alone (dark %d, lane %d)", laneC.idx, eng.DarkLive(), laneC.sess.DarkLive())
	}
	// Repair those arcs in the graphs only, with no revival sweep, so
	// the parked entry is routable again but still dark.
	for _, a := range parked {
		ca := eng.arcLoc[a]
		_, rla := c.regionArc(ca)
		for _, fix := range []struct {
			g *digraph.Digraph
			a digraph.ArcID
		}{{g, a}, {c.overlay.sess.net.Topology, ca}, {laneC.sess.net.Topology, rla}} {
			if fix.g.ArcFailed(fix.a) {
				if err := fix.g.RestoreArc(fix.a); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// A cut of an idle arc in lane A: lane C's entry revives in the
	// cross-lane sweep, so A and C rebuild and the other lanes keep
	// their tables.
	loads := strongArcLoads(eng)
	var laneA *engineShard
	idle := digraph.ArcID(-1)
	for _, rs := range lanes[1:] {
		for _, a := range regionArcs[rs] {
			if loads[a] == 0 && laneA == nil {
				laneA, idle = rs, a
			}
		}
	}
	if laneA == nil {
		t.Fatal("no idle region arc outside lane C")
	}
	if laneA == laneB {
		laneB = lanes[2]
	}
	before := tables()
	if _, err := eng.FailArc(idle); err != nil {
		t.Fatal(err)
	}
	after := tables()
	if eng.DarkLive() != 0 {
		t.Fatalf("%d dark entries after the cross-lane sweep", eng.DarkLive())
	}
	if before[laneC] == after[laneC] {
		t.Fatalf("lane %d revived an entry but kept its table", laneC.idx)
	}
	requireKept("cut with revival", before, after, laneA, laneC)
	checkSnapshotAgainstStrong(t, eng, ids)

	// With no dark entries left, a cut in lane B that parks nothing
	// rebuilds lane B only among the region lanes, and so does its
	// repair. The arcs are tried in order; one whose cut parks an entry
	// is repaired and skipped (a zero-load arc never parks).
	isolated := false
	for _, a := range regionArcs[laneB] {
		before = tables()
		if _, err := eng.FailArc(a); err != nil {
			t.Fatal(err)
		}
		checkSnapshotAgainstStrong(t, eng, ids)
		if eng.DarkLive() != 0 {
			if _, err := eng.RestoreArc(a); err != nil {
				t.Fatal(err)
			}
			continue
		}
		requireKept("cut", before, tables(), laneB)
		before = tables()
		if _, err := eng.RestoreArc(a); err != nil {
			t.Fatal(err)
		}
		requireKept("repair", before, tables(), laneB)
		checkSnapshotAgainstStrong(t, eng, ids)
		isolated = true
		if strongArcLoads(eng)[a] > 0 {
			break // a cut that rerouted traffic and parked none
		}
	}
	if !isolated {
		t.Fatalf("every cut in lane %d parked an entry", laneB.idx)
	}
}
