package wavedag_test

import (
	"errors"
	"testing"

	"wavedag"
)

func TestQuickstartFlow(t *testing.T) {
	g := wavedag.NewGraph(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	g.MustAddArc(2, 3)
	fam := wavedag.Family{
		wavedag.MustPath(g, 0, 1, 2),
		wavedag.MustPath(g, 1, 2, 3),
	}
	if pi := wavedag.Load(g, fam); pi != 2 {
		t.Fatalf("π = %d, want 2", pi)
	}
	res, method, err := wavedag.Color(g, fam)
	if err != nil {
		t.Fatal(err)
	}
	if method != wavedag.MethodTheorem1 {
		t.Fatalf("method = %s", method)
	}
	if res.NumColors != 2 {
		t.Fatalf("colors = %d", res.NumColors)
	}
	if err := wavedag.VerifyColoring(g, fam, res); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeConstructions(t *testing.T) {
	g, fam, err := wavedag.PathologicalStaircase(4)
	if err != nil {
		t.Fatal(err)
	}
	if wavedag.Load(g, fam) != 2 {
		t.Fatal("staircase load wrong")
	}
	if !wavedag.HasInternalCycle(g) {
		t.Fatal("staircase must have internal cycles (w > π)")
	}

	g3, fam3 := wavedag.Figure3Instance()
	if wavedag.InternalCycleCount(g3) != 1 || len(fam3) != 5 {
		t.Fatal("Figure 3 instance wrong")
	}

	gH, famH := wavedag.HavetInstance()
	if ok, _, _, _ := wavedag.IsUPP(gH); !ok {
		t.Fatal("Havet graph must be UPP")
	}
	res, err := wavedag.ColorOneInternalCycleUPP(gH, famH)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 3 {
		t.Fatalf("Havet base coloring = %d colors, want 3", res.NumColors)
	}

	gG, famG, err := wavedag.InternalCycleGadget(3)
	if err != nil {
		t.Fatal(err)
	}
	cg := wavedag.NewConflictGraph(gG, famG)
	if cg.ChromaticNumber() != 3 {
		t.Fatal("gadget χ must be 3")
	}
}

func TestFacadeTheorem1Error(t *testing.T) {
	g, fam := wavedag.Figure3Instance()
	if _, err := wavedag.ColorNoInternalCycle(g, fam); err == nil {
		t.Fatal("internal-cycle graph accepted by Theorem 1")
	}
}

func TestFacadeArcLoads(t *testing.T) {
	g := wavedag.NewGraph(3)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	fam := wavedag.Family{wavedag.MustPath(g, 0, 1, 2)}
	loads := wavedag.ArcLoads(g, fam)
	if len(loads) != 2 || loads[0] != 1 || loads[1] != 1 {
		t.Fatalf("loads = %v", loads)
	}
}

// TestSessionFacade drives the dynamic provisioning engine through the
// public API: open a session, churn requests, verify, snapshot.
func TestSessionFacade(t *testing.T) {
	g := wavedag.NewGraph(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	g.MustAddArc(2, 3)
	net := &wavedag.Network{Topology: g, Wavelengths: 8}
	s, err := net.NewSession(wavedag.WithRoutingPolicy(wavedag.RouteShortest), wavedag.WithSlack(1))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := s.Add(wavedag.Request{Src: 0, Dst: 3})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Add(wavedag.Request{Src: 1, Dst: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pi() != 2 {
		t.Fatalf("π = %d, want 2", s.Pi())
	}
	if lambda, err := s.NumLambda(); err != nil || lambda != 2 {
		t.Fatalf("λ = %d (%v), want 2", lambda, err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(id1); err != nil {
		t.Fatal(err)
	}
	if lambda, err := s.NumLambda(); err != nil || lambda != 1 {
		t.Fatalf("λ = %d (%v) after removal, want 1", lambda, err)
	}
	prov, err := s.Provisioning()
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Paths) != 1 || !prov.Feasible {
		t.Fatalf("snapshot: %d paths, feasible=%v", len(prov.Paths), prov.Feasible)
	}
	if w, err := s.Wavelength(id2); err != nil || w < 0 {
		t.Fatalf("wavelength of live id: %d (%v)", w, err)
	}
	// The incremental layers are also usable standalone.
	dyn := wavedag.NewDynamicConflictGraph(g)
	p := wavedag.MustPath(g, 0, 1, 2)
	slot, err := dyn.AddPath(p)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.LowerBound() != 1 || dyn.NumLive() != 1 {
		t.Fatalf("dyn: lb=%d live=%d", dyn.LowerBound(), dyn.NumLive())
	}
	if err := dyn.RemovePath(slot); err != nil {
		t.Fatal(err)
	}
	ic := wavedag.NewIncrementalColorer(g, 0)
	if _, err := ic.Add(p); err != nil {
		t.Fatal(err)
	}
	if ic.NumLambda() != 1 {
		t.Fatalf("colorer λ = %d", ic.NumLambda())
	}
}

// TestAdmissionFacade exercises the budgeted-admission API through the
// facade: session budgets, the admission registry, the budgeted sharded
// engine with its lane stats, and the online max-request selection
// against its offline oracles.
func TestAdmissionFacade(t *testing.T) {
	// Directed path 0 -> 1 -> 2 -> 3: a Theorem-1 topology.
	g := wavedag.NewGraph(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	g.MustAddArc(2, 3)

	for _, name := range []string{
		wavedag.AdmissionReject, wavedag.AdmissionRetryAltRoute, wavedag.AdmissionDegrade,
	} {
		if _, ok := wavedag.LookupAdmissionStrategy(name); !ok {
			t.Fatalf("built-in admission strategy %q not registered", name)
		}
	}

	net := &wavedag.Network{Topology: g}
	s, err := net.NewSession(wavedag.WithWavelengthBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(wavedag.Request{Src: 0, Dst: 3}); err != nil {
		t.Fatal(err)
	}
	_, adm, err := s.TryAdd(wavedag.Request{Src: 1, Dst: 2})
	if err != nil || adm.Accepted {
		t.Fatalf("over-budget request: %+v %v", adm, err)
	}
	if _, err := s.Add(wavedag.Request{Src: 1, Dst: 2}); !errors.Is(err, wavedag.ErrBudgetExceeded) {
		t.Fatalf("Add error = %v, want ErrBudgetExceeded", err)
	}
	if st := s.AdmissionStats(); st.Accepted != 1 || st.Rejected != 2 {
		t.Fatalf("stats %+v", st)
	}

	// Online max-request: at w=1 only disjoint dipaths survive, and the
	// selection can never beat the exact solver.
	fam := wavedag.Family{
		wavedag.MustPath(g, 0, 1, 2),
		wavedag.MustPath(g, 1, 2, 3),
		wavedag.MustPath(g, 2, 3),
	}
	sel, err := wavedag.MaxRequestsOnline(g, fam, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := wavedag.MaxRequestsExact(g, fam, 1)
	if len(sel) == 0 || len(sel) > len(exact) {
		t.Fatalf("|online| = %d, |exact| = %d", len(sel), len(exact))
	}

	// Budgeted engine: stats carry the budget and the lane shares.
	eng, err := net.NewShardedEngine(wavedag.WithEngineWavelengthBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	results := eng.ApplyBatchInto([]wavedag.BatchOp{
		wavedag.AddOp(wavedag.Request{Src: 0, Dst: 3}),
		wavedag.AddOp(wavedag.Request{Src: 1, Dst: 2}),
	}, nil)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if !errors.Is(results[1].Err, wavedag.ErrBudgetExceeded) {
		t.Fatalf("batch rejection = %v", results[1].Err)
	}
	st := eng.Stats()
	if st.Budget != 1 || st.Plain.Accepted != 1 || st.Plain.Rejected != 1 {
		t.Fatalf("engine stats %+v", st)
	}
}

// TestSnapshotFacade exercises the lock-free query plane through the
// facade: the snapshot-backed engine reads agreeing with a pinned
// wavedag.EngineSnapshot, and that snapshot surviving churn and Close.
func TestSnapshotFacade(t *testing.T) {
	g := wavedag.NewGraph(4)
	g.MustAddArc(0, 1)
	g.MustAddArc(1, 2)
	g.MustAddArc(2, 3)
	net := &wavedag.Network{Topology: g}
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	id, err := eng.Add(wavedag.Request{Src: 0, Dst: 3})
	if err != nil {
		t.Fatal(err)
	}
	var snap *wavedag.EngineSnapshot = eng.Snapshot()
	defer snap.Release()
	if eng.Len() != 1 || snap.Len() != 1 || eng.Pi() != snap.Pi() {
		t.Fatalf("engine reads disagree with the pinned snapshot: len %d/%d, pi %d/%d",
			eng.Len(), snap.Len(), eng.Pi(), snap.Pi())
	}
	if w, err := eng.Wavelength(id); err != nil || w < 0 {
		t.Fatalf("Wavelength = %d (%v)", w, err)
	}
	if _, err := eng.Add(wavedag.Request{Src: 1, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 1 || eng.Len() != 2 {
		t.Fatalf("pinned snapshot len %d (want 1), live len %d (want 2)", snap.Len(), eng.Len())
	}
	buf := eng.ArcLoadsInto(nil)
	if len(buf) != 3 {
		t.Fatalf("ArcLoadsInto len = %d", len(buf))
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	final := eng.Snapshot()
	defer final.Release()
	if !final.Closed() || eng.Len() != 2 {
		t.Fatalf("post-Close: closed=%v len=%d", final.Closed(), eng.Len())
	}
}
