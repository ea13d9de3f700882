package wdm

import (
	"testing"

	"wavedag/internal/digraph"
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
	if got, want := eng.NumFailedArcs(), eng.NumFailedArcsStrong(); got != want {
		t.Fatalf("snapshot NumFailedArcs=%d, strong=%d: FailArc error path did not publish", got, want)
	}
	if eng.NumFailedArcsStrong() != 1 {
		t.Fatalf("strong NumFailedArcs=%d, want 1", eng.NumFailedArcsStrong())
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
	if got, want := eng.NumFailedArcs(), eng.NumFailedArcsStrong(); got != want {
		t.Fatalf("snapshot NumFailedArcs=%d, strong=%d: RestoreArc error path did not publish", got, want)
	}
	if eng.NumFailedArcsStrong() != 0 {
		t.Fatalf("strong NumFailedArcs=%d, want 0", eng.NumFailedArcsStrong())
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
	for _, name := range []string{ColoringIncremental, ColoringFull} {
		if _, ok := coloringStrategies[name]; !ok {
			t.Errorf("no coloring strategy registered under constant %q", name)
		}
	}
	for _, name := range []string{AdmissionReject, AdmissionRetryAltRoute, AdmissionDegrade} {
		if _, ok := admissionStrategies[name]; !ok {
			t.Errorf("no admission strategy registered under constant %q", name)
		}
	}
}
