package wdm

// Survivability tests: fiber-cut storms, dark parking and revival on
// the session and the sharded engine; the best-effort re-promotion
// regression; stale-id hardening (zero mutation on unknown ids); Close
// racing ApplyBatch/FailArc; and the randomized fault-schedule churn
// acceptance run (Verify-clean, λ ≤ w, no dark entry left on a live
// in-budget route after any event).

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

func TestSessionFailArcStormRestores(t *testing.T) {
	g, v := diamond(t)
	net := &Network{Topology: g}
	sess, err := net.NewSession(WithWavelengthBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	id, err := sess.Add(route.Request{Src: v[0], Dst: v[3]})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sess.Path(id)
	if err != nil {
		t.Fatal(err)
	}
	cut := p.Arcs()[0]
	rep, err := sess.FailArc(cut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 1 || rep.Restored != 1 || rep.Parked != 0 {
		t.Fatalf("storm report %+v", rep)
	}
	// The storm moved the path onto the surviving branch.
	np, err := sess.Path(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range np.Arcs() {
		if g.ArcFailed(a) {
			t.Fatalf("restored route crosses the failed arc")
		}
	}
	if sess.Len() != 1 || sess.DarkLive() != 0 {
		t.Fatalf("len=%d dark=%d", sess.Len(), sess.DarkLive())
	}
	if n, err := sess.NumLambda(); err != nil || n > 1 {
		t.Fatalf("λ=%d (%v)", n, err)
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
	// Cutting an already-failed arc is an error with no state change.
	if _, err := sess.FailArc(cut); err == nil {
		t.Fatal("double cut succeeded")
	}
}

func TestSessionFailArcParksAndRevives(t *testing.T) {
	g, v := diamond(t)
	net := &Network{Topology: g}
	sess, err := net.NewSession(WithWavelengthBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	id, err := sess.Add(route.Request{Src: v[0], Dst: v[3]})
	if err != nil {
		t.Fatal(err)
	}
	// Cut both branches: nothing to restore onto.
	if _, err := sess.FailArc(digraph.ArcID(0)); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.FailArc(digraph.ArcID(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 1 || rep.Restored != 0 || rep.Parked != 1 {
		t.Fatalf("storm report %+v", rep)
	}
	// Parked, not dropped: excluded from the live view but addressable.
	if dark, err := sess.IsDark(id); err != nil || !dark {
		t.Fatalf("IsDark = %v, %v", dark, err)
	}
	if sess.Len() != 0 || sess.DarkLive() != 1 || sess.Pi() != 0 {
		t.Fatalf("len=%d dark=%d π=%d", sess.Len(), sess.DarkLive(), sess.Pi())
	}
	if w, err := sess.Wavelength(id); err != nil || w != -1 {
		t.Fatalf("dark wavelength = %d, %v", w, err)
	}
	if ids := sess.IDs(); len(ids) != 0 {
		t.Fatalf("dark id leaked into IDs: %v", ids)
	}
	if ids := sess.DarkIDs(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("DarkIDs = %v", ids)
	}
	if n, err := sess.NumLambda(); err != nil || n != 0 {
		t.Fatalf("λ=%d (%v)", n, err)
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
	// Repairing one branch revives it oldest-first.
	revived, err := sess.RestoreArc(digraph.ArcID(0))
	if err != nil {
		t.Fatal(err)
	}
	if revived != 1 {
		t.Fatalf("revived = %d", revived)
	}
	if dark, _ := sess.IsDark(id); dark {
		t.Fatal("still dark after repair")
	}
	if sess.Len() != 1 || sess.DarkLive() != 0 {
		t.Fatalf("len=%d dark=%d", sess.Len(), sess.DarkLive())
	}
	fs := sess.FailureStats()
	if fs.Cuts != 2 || fs.Restores != 1 || fs.Parked != 1 || fs.Revived != 1 {
		t.Fatalf("failure stats %+v", fs)
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionRemoveDarkEntry(t *testing.T) {
	g, v := diamond(t)
	net := &Network{Topology: g}
	sess, err := net.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	id, err := sess.Add(route.Request{Src: v[0], Dst: v[3]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.FailArc(digraph.ArcID(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.FailArc(digraph.ArcID(2)); err != nil {
		t.Fatal(err)
	}
	if sess.DarkLive() != 1 {
		t.Fatalf("dark = %d", sess.DarkLive())
	}
	// A dark entry can be torn down like any other request.
	if err := sess.Remove(id); err != nil {
		t.Fatal(err)
	}
	if sess.DarkLive() != 0 || sess.Len() != 0 {
		t.Fatalf("dark=%d len=%d after remove", sess.DarkLive(), sess.Len())
	}
	// And it is gone: the id no longer resolves.
	if err := sess.Remove(id); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("removed dark id resolves: %v", err)
	}
}

// countingRouting is the shortest strategy with a log of every Route
// call's request, in call order.
type countingRouting struct{ log *[]route.Request }

func (c countingRouting) NewState(g *digraph.Digraph) (RoutingState, error) {
	inner, err := RouteShortest.NewState(g)
	if err != nil {
		return nil, err
	}
	return &countingState{inner, c.log}, nil
}

type countingState struct {
	inner RoutingState
	log   *[]route.Request
}

func (s *countingState) Route(req route.Request, loads *load.Tracker) (*dipath.Path, error) {
	*s.log = append(*s.log, req)
	return s.inner.Route(req, loads)
}

// TestReviveSkipsUnroutableDarkEntries pins the revival skip: a dark
// entry whose pair a cut disconnected is not routed again until the
// session's topology changes, while an entry parked only by the budget
// is retried on every Remove and relights on the one that frees its
// capacity. A repair relights the disconnected entries oldest park
// first, and an entry index recycled after a skip does not inherit it.
func TestReviveSkipsUnroutableDarkEntries(t *testing.T) {
	// a -> b -> c; x -> y beside x -> m -> y; p -> q.
	g := digraph.New(8)
	const a, b, c, x, m, y, p, q = 0, 1, 2, 3, 4, 5, 6, 7
	ab := g.MustAddArc(a, b)
	bc := g.MustAddArc(b, c)
	xy := g.MustAddArc(x, y)
	g.MustAddArc(x, m)
	g.MustAddArc(m, y)
	g.MustAddArc(p, q)
	var log []route.Request
	calls := func(req route.Request) int {
		n := 0
		for _, r := range log {
			if r == req {
				n++
			}
		}
		return n
	}
	sess, err := (&Network{Topology: g}).NewSession(
		WithWavelengthBudget(2), WithRoutingStrategy(countingRouting{&log}))
	if err != nil {
		t.Fatal(err)
	}
	add := func(src, dst digraph.Vertex) SessionID {
		t.Helper()
		id, err := sess.Add(route.Request{Src: src, Dst: dst})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ac, bcID := add(a, c), add(b, c)
	xyID := add(x, y)
	xm1, _, my1, _ := add(x, m), add(x, m), add(m, y), add(m, y)
	pq1, pq2 := add(p, q), add(p, q)
	reqAC, reqBC, reqXY := route.Request{Src: a, Dst: c}, route.Request{Src: b, Dst: c}, route.Request{Src: x, Dst: y}

	// Cutting b -> c disconnects both chain pairs. The storm parks the
	// shorter one first, so the park order is the reverse of the index
	// order.
	if rep, err := sess.FailArc(bc); err != nil || rep.Parked != 2 {
		t.Fatalf("storm %+v, %v", rep, err)
	}
	if ids := sess.DarkIDs(); len(ids) != 2 || ids[0] != bcID || ids[1] != ac {
		t.Fatalf("DarkIDs = %v, want [%v %v]", ids, bcID, ac)
	}
	// Cutting x -> y parks x -> y behind the budget: x -> m -> y is
	// live but full. The new epoch retries the chain pairs once.
	if rep, err := sess.FailArc(xy); err != nil || rep.Parked != 1 {
		t.Fatalf("storm %+v, %v", rep, err)
	}
	nAC, nBC, nXY := calls(reqAC), calls(reqBC), calls(reqXY)

	// Removals free capacity but change no topology: the disconnected
	// pairs are not routed again, the budget-parked one is, every time.
	for i, id := range []SessionID{pq1, pq2, xm1} {
		if err := sess.Remove(id); err != nil {
			t.Fatal(err)
		}
		if calls(reqAC) != nAC || calls(reqBC) != nBC {
			t.Fatalf("remove %d routed a disconnected dark entry: a->c %d -> %d, b->c %d -> %d",
				i, nAC, calls(reqAC), nBC, calls(reqBC))
		}
		if calls(reqXY) != nXY+i+1 {
			t.Fatalf("remove %d: x->y routed %d times, want %d", i, calls(reqXY)-nXY, i+1)
		}
	}
	if dark, err := sess.IsDark(xyID); err != nil || !dark {
		t.Fatalf("x->y relit while m -> y is full: dark=%v, %v", dark, err)
	}
	// Freeing m -> y relights x -> y on that very Remove.
	if err := sess.Remove(my1); err != nil {
		t.Fatal(err)
	}
	if dark, err := sess.IsDark(xyID); err != nil || dark {
		t.Fatalf("x->y still dark after its capacity freed: dark=%v, %v", dark, err)
	}
	if calls(reqAC) != nAC || calls(reqBC) != nBC {
		t.Fatal("a Remove routed a disconnected dark entry")
	}

	// The repair relights both chain pairs, oldest park first.
	from := len(log)
	if n, err := sess.RestoreArc(bc); err != nil || n != 2 {
		t.Fatalf("RestoreArc revived %d, %v", n, err)
	}
	if got := log[from:]; len(got) < 2 || got[0] != reqBC || got[1] != reqAC {
		t.Fatalf("repair routed %v, want b->c before a->c", got)
	}
	if sess.DarkLive() != 0 {
		t.Fatalf("dark = %d after the repair", sess.DarkLive())
	}

	// Recycling: a->c is parked and skipped, then removed; a dark entry
	// adopted into its index at the same epoch must still be tried.
	if rep, err := sess.FailArc(ab); err != nil || rep.Parked != 1 {
		t.Fatalf("storm %+v, %v", rep, err)
	}
	if err := sess.Remove(ac); err != nil {
		t.Fatal(err)
	}
	adopted := sess.adoptDark(route.Request{Src: p, Dst: q}, nil)
	if uint32(adopted) != uint32(ac) {
		t.Fatalf("adopted entry landed on index %d, want the recycled %d", uint32(adopted), uint32(ac))
	}
	if n := sess.Revive(); n != 1 {
		t.Fatalf("Revive relit %d entries, want the adopted one", n)
	}
	if dark, err := sess.IsDark(adopted); err != nil || dark {
		t.Fatalf("adopted entry dark=%v, %v", dark, err)
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteBestEffortOnRemove is the re-promotion regression: a
// degrade-admitted best-effort path must upgrade to budgeted service
// when a teardown brings λ back within the budget — it used to stay
// best-effort forever.
func TestPromoteBestEffortOnRemove(t *testing.T) {
	g, v := diamond(t)
	net := &Network{Topology: g}
	sess, err := net.NewSession(
		WithWavelengthBudget(1),
		WithAdmissionStrategy(AdmissionDegrade),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := dipath.MustFromVertices(g, v[0], v[1], v[3])
	id1, adm, err := sess.TryAddPath(p)
	if err != nil || !adm.Accepted || adm.BestEffort {
		t.Fatalf("first offer: %+v %v", adm, err)
	}
	id2, adm, err := sess.TryAddPath(p)
	if err != nil || !adm.Accepted || !adm.BestEffort {
		t.Fatalf("degraded offer: %+v %v", adm, err)
	}
	if sess.BestEffortLive() != 1 {
		t.Fatalf("BestEffortLive = %d", sess.BestEffortLive())
	}
	// Tear down the budgeted path: headroom returns, so the sweep must
	// promote the best-effort entry and restore the λ ≤ w guarantee.
	if err := sess.Remove(id1); err != nil {
		t.Fatal(err)
	}
	if sess.BestEffortLive() != 0 {
		t.Fatalf("BestEffortLive = %d after headroom returned", sess.BestEffortLive())
	}
	if be, err := sess.IsBestEffort(id2); err != nil || be {
		t.Fatalf("IsBestEffort = %v, %v", be, err)
	}
	if n, err := sess.NumLambda(); err != nil || n > 1 {
		t.Fatalf("λ=%d past budget after promotion (%v)", n, err)
	}
	if fs := sess.FailureStats(); fs.Promoted != 1 {
		t.Fatalf("Promoted = %d", fs.Promoted)
	}
	if err := sess.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFailArcPlainComponent(t *testing.T) {
	net := multiComponentNetwork(t, 3, 77)
	eng, err := net.NewShardedEngine(WithEngineWavelengthBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pool := route.NewRouter(net.Topology).AllToAll()
	var ids []ShardedID
	for i := 0; i < len(pool) && len(ids) < 24; i += 3 {
		id, err := eng.Add(pool[i])
		if err == nil {
			ids = append(ids, id)
		} else if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatal(err)
		}
	}
	// Cut the most loaded arc: its paths must restore or park, never
	// vanish, and the live assignment must stay proper and in budget.
	loads := eng.ArcLoads()
	cut, best := digraph.ArcID(0), -1
	for a, l := range loads {
		if l > best {
			cut, best = digraph.ArcID(a), l
		}
	}
	rep, err := eng.FailArc(cut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != best {
		t.Fatalf("affected %d, want %d", rep.Affected, best)
	}
	if rep.Restored+rep.Parked != rep.Affected {
		t.Fatalf("storm lost paths: %+v", rep)
	}
	if eng.Len()+eng.DarkLive() != len(ids) {
		t.Fatalf("live %d + dark %d != %d", eng.Len(), eng.DarkLive(), len(ids))
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	if n, err := eng.NumLambda(); err != nil || n > 4 {
		t.Fatalf("λ=%d (%v)", n, err)
	}
	if eng.NumFailedArcs() != 1 {
		t.Fatalf("failed arcs = %d", eng.NumFailedArcs())
	}
	st := eng.Stats()
	if st.Cuts != 1 || st.FailedArcs != 1 || st.Plain.Affected != rep.Affected {
		t.Fatalf("engine stats %+v", st)
	}
	// Repair: every dark entry comes back (capacity allowing) and the
	// failure counters settle.
	revived, err := eng.RestoreArc(cut)
	if err != nil {
		t.Fatal(err)
	}
	if revived != rep.Parked {
		t.Fatalf("revived %d of %d parked", revived, rep.Parked)
	}
	if eng.DarkLive() != 0 || eng.Len() != len(ids) {
		t.Fatalf("dark=%d len=%d after repair", eng.DarkLive(), eng.Len())
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
	// Unknown and double-restore arcs are clean errors.
	if _, err := eng.FailArc(digraph.ArcID(-1)); err == nil {
		t.Fatal("negative arc accepted")
	}
	if _, err := eng.RestoreArc(cut); err == nil {
		t.Fatal("double restore accepted")
	}
}

// TestEngineFailArcSplitsComponent pins the contract for a pair a cut
// disconnected inside its component: the add fails with ErrNoRoute
// naming the global request, from whichever lane the pair dispatches
// to (the lane's search answers it; dispatch keeps no live
// connectivity labels), and an added arc that bridges the cut, or the
// repair, makes the pair routable again.
func TestEngineFailArcSplitsComponent(t *testing.T) {
	wantNoRoute := func(t *testing.T, eng *ShardedEngine, req route.Request) {
		t.Helper()
		var nr route.ErrNoRoute
		if _, err := eng.Add(req); !errors.As(err, &nr) || nr.Req != req {
			t.Fatalf("split-pair add %v: %v, want ErrNoRoute naming it", req, err)
		}
	}
	t.Run("one-lane", func(t *testing.T) {
		// 0 -> 1 -> 2: a path component; cutting 1->2 splits it.
		g := digraph.New(3)
		g.MustAddArc(0, 1)
		bridge := g.MustAddArc(1, 2)
		net := &Network{Topology: g}
		eng, err := net.NewShardedEngine()
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.FailArc(bridge); err != nil {
			t.Fatal(err)
		}
		wantNoRoute(t, eng, route.Request{Src: 0, Dst: 2})
		// The surviving half keeps admitting.
		if _, err := eng.Add(route.Request{Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
		// A second fiber 1 -> 2 bridges the cut.
		if _, err := eng.AddArc(1, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Add(route.Request{Src: 0, Dst: 2}); err != nil {
			t.Fatalf("add over the bridging arc: %v", err)
		}
		if _, err := eng.RestoreArc(bridge); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Add(route.Request{Src: 0, Dst: 2}); err != nil {
			t.Fatalf("post-repair add: %v", err)
		}
		if err := eng.Verify(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("two-level", func(t *testing.T) {
		net := giantComponentNetwork(t, 3, 811)
		eng := twoLevelEngine(t, net)
		defer eng.Close()
		g := net.Topology
		// A destination reached by a region-lane pair and an
		// overlay-lane pair; cutting every arc into it splits both.
		var regionReq, overlayReq route.Request
		found := false
		for d := 0; d < g.NumVertices() && !found; d++ {
			var haveRegion, haveOverlay bool
			for _, req := range route.NewRouter(g).AllToAll() {
				if int(req.Dst) != d {
					continue
				}
				sh, _, err := eng.dispatchAdd(req)
				if err != nil {
					t.Fatal(err)
				}
				if sh.kind == shardRegion && !haveRegion {
					regionReq, haveRegion = req, true
				} else if sh.kind == shardOverlay && !haveOverlay {
					overlayReq, haveOverlay = req, true
				}
			}
			found = haveRegion && haveOverlay
		}
		if !found {
			t.Fatal("no destination reached from both lane kinds")
		}
		dst := regionReq.Dst
		for _, a := range g.InArcs(dst) {
			if _, err := eng.FailArc(a); err != nil {
				t.Fatal(err)
			}
		}
		wantNoRoute(t, eng, regionReq)
		wantNoRoute(t, eng, overlayReq)
		// Bridging arcs from each source straight into dst: the region
		// pair's arc joins its region lane, the overlay pair's arc
		// bridges regions and is the overlay lane's alone.
		for _, req := range []route.Request{regionReq, overlayReq} {
			if _, err := eng.AddArc(req.Src, dst); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Add(req); err != nil {
				t.Fatalf("add %v over the bridging arc: %v", req, err)
			}
		}
		if err := eng.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTwoLevelEngineFailArc(t *testing.T) {
	net := giantComponentNetwork(t, 3, 811)
	eng := twoLevelEngine(t, net, WithEngineWavelengthBudget(6))
	defer eng.Close()
	pool := route.NewRouter(net.Topology).AllToAll()
	var ids []ShardedID
	for i := 0; i < len(pool) && len(ids) < 40; i += 2 {
		id, err := eng.Add(pool[i])
		if err == nil {
			ids = append(ids, id)
		} else if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatal(err)
		}
	}
	total := len(ids)
	if st := eng.Stats(); st.TwoLevel == 0 {
		t.Fatal("topology did not produce a two-level component")
	}
	// Cut every third arc, checking the reconciled two-level state after
	// each storm; then heal in reverse order.
	var cuts []digraph.ArcID
	for a := 0; a < net.Topology.NumArcs(); a += 3 {
		cuts = append(cuts, digraph.ArcID(a))
	}
	for _, a := range cuts {
		rep, err := eng.FailArc(a)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Restored+rep.Parked != rep.Affected {
			t.Fatalf("cut %d lost paths: %+v", a, rep)
		}
		if err := eng.Verify(); err != nil {
			t.Fatalf("cut %d: %v", a, err)
		}
		if n, err := eng.NumLambda(); err != nil || n > 6 {
			t.Fatalf("cut %d: λ=%d (%v)", a, n, err)
		}
	}
	if eng.Len()+eng.DarkLive() != total {
		t.Fatalf("live %d + dark %d != %d", eng.Len(), eng.DarkLive(), total)
	}
	for i := len(cuts) - 1; i >= 0; i-- {
		if _, err := eng.RestoreArc(cuts[i]); err != nil {
			t.Fatal(err)
		}
		if err := eng.Verify(); err != nil {
			t.Fatalf("restore %d: %v", cuts[i], err)
		}
	}
	if eng.NumFailedArcs() != 0 {
		t.Fatalf("failed arcs = %d after full heal", eng.NumFailedArcs())
	}
	// Nothing may be lost: every entry is live again or parked dark
	// (revival after a heal is still budget-bound — storms may have left
	// survivors on detour routes that hold the parked entry's capacity).
	if eng.Len()+eng.DarkLive() != total {
		t.Fatalf("live %d + dark %d != %d after full heal", eng.Len(), eng.DarkLive(), total)
	}
	if n, err := eng.NumLambda(); err != nil || n > 6 {
		t.Fatalf("λ=%d after heal (%v)", n, err)
	}
	// Tear down every live entry, then run the cross-lane sweep: with
	// the topology healed and the capacity freed the parked remainder
	// must all come back — dark entries are never lost.
	stillDark := eng.DarkLive()
	for _, id := range ids {
		if dark, err := eng.IsDark(id); err != nil || dark {
			continue
		}
		if err := eng.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Revive(); err != nil {
		t.Fatal(err)
	}
	if eng.DarkLive() != 0 {
		t.Fatalf("dark=%d after capacity freed (was %d)", eng.DarkLive(), stillDark)
	}
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCloseRacesFailArc drives concurrent batches and a fault
// injector against Close: after Close every mutation (including FailArc
// and RestoreArc) reports ErrEngineClosed and the queries keep
// answering on the frozen state. Run under -race at -cpu=1,4.
func TestEngineCloseRacesFailArc(t *testing.T) {
	net := multiComponentNetwork(t, 4, 67)
	eng, err := net.NewShardedEngine(WithShardWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	pool := route.NewRouter(net.Topology).AllToAll()

	var started, done sync.WaitGroup
	const batchers = 2
	started.Add(batchers + 1)
	done.Add(batchers + 1)
	for gi := 0; gi < batchers; gi++ {
		go func(gi int) {
			defer done.Done()
			rng := rand.New(rand.NewSource(int64(500 + gi)))
			var mine []ShardedID
			signalled := false
			nops := 2 * serialBatchThreshold
			for {
				ops := make([]BatchOp, 0, nops)
				nRemove := 0
				for k := 0; k < nops; k++ {
					if nRemove < len(mine) && rng.Intn(3) == 0 {
						ops = append(ops, RemoveOp(mine[nRemove]))
						nRemove++
					} else {
						ops = append(ops, AddOp(pool[rng.Intn(len(pool))]))
					}
				}
				mine = mine[nRemove:]
				closed := false
				for i, res := range eng.ApplyBatch(ops) {
					if errors.Is(res.Err, ErrEngineClosed) {
						closed = true
						break
					}
					var nr route.ErrNoRoute
					if errors.As(res.Err, &nr) {
						continue // a concurrent cut disconnected the pair
					}
					if errors.Is(res.Err, ErrUnknownSession) {
						continue // removed while parked by a concurrent storm
					}
					if res.Err != nil {
						t.Errorf("goroutine %d: %v", gi, res.Err)
						closed = true
						break
					}
					if ops[i].Kind == BatchAdd {
						mine = append(mine, res.ID)
					}
				}
				if !signalled {
					signalled = true
					started.Done()
				}
				if closed {
					return
				}
			}
		}(gi)
	}
	// The fault injector cycles cut/repair over a fixed arc set.
	go func() {
		defer done.Done()
		arcs := []digraph.ArcID{0, 5, 9}
		signalled := false
		for {
			closed := false
			for _, a := range arcs {
				if _, err := eng.FailArc(a); errors.Is(err, ErrEngineClosed) {
					closed = true
					break
				}
				if _, err := eng.RestoreArc(a); errors.Is(err, ErrEngineClosed) {
					closed = true
					break
				}
			}
			if !signalled {
				signalled = true
				started.Done()
			}
			if closed {
				return
			}
		}
	}()
	started.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	done.Wait()

	if _, err := eng.FailArc(digraph.ArcID(0)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("FailArc after Close: %v", err)
	}
	if _, err := eng.RestoreArc(digraph.ArcID(0)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("RestoreArc after Close: %v", err)
	}
	// Queries answer on the frozen state.
	eng.Pi()
	eng.Len()
	eng.DarkLive()
	eng.NumFailedArcs()
	eng.Stats()
	if err := eng.Verify(); err != nil {
		t.Fatal(err)
	}
}
