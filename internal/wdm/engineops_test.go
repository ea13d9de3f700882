package wdm

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"wavedag/internal/core"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

// FuzzEngineOps runs one op stream against one engine configuration
// and checks every mutation boundary against opsModel, a naive
// reference that keeps each live request's route and dark flag and
// recomputes the rest from scratch. The inputs decode to a
// configuration (decodeOpsConfig), a topology (opsFixture) and a
// stream: the ops bytes, or opsDefaultOps ops drawn from opSeed. The
// stream holds Add, Remove, Reroute, ApplyBatch, FailArc, RestoreArc,
// AddArc and Revive. An engine's stream ends in a Close, after which
// concurrent Closes return nil and every op kind fails with
// ErrEngineClosed without moving the state or the snapshot sequence.
//
// The model replays a batch in the engine's effective order (region
// lane ops, then overlay lane ops with an escalating component's
// re-run region adds, each in input order). It routes on a fresh
// router over the lane's graph against the lit family's loads and
// admits by the Theorem-1 load rule; from the engine it reads only the
// layout. What it does not predict it adopts, once each lit route
// serves its request over live arcs: the rollback probe's verdicts,
// storms and sweeps, and a component's batch ops after a removal in a
// lane with dark or best-effort entries (the sweep may relight or
// promote them). opsCounts tallies predicted and adopted verdicts.
//
// Invariants: the model's routes, verdicts, Len, π and loads; Verify,
// also of the merged Provisioning; π ≤ λ ≤ λref + core.DefaultSlack +
// OverlayLambda, with λref from core.ColorDAGPrevalidated on the lit
// family (the overlay band stacks above the regions); λ ≤ w under a
// budget with no best-effort entry live; λ ≤ π + core.DefaultSlack on
// every lane without internal cycle, over its own family (Theorem 1,
// through the cold recolor); lock-free reads equal the strong_test.go
// oracles, and every boundary publishes; a failed single op leaves the
// digest unchanged; dark entries list in park order, and no dark entry
// of a precheck or unbudgeted lane keeps a live parked route that fits
// after a sweep (checked after Revive, and after every boundary on
// lanes spanning their component that no Reroute has changed since).
func FuzzEngineOps(f *testing.F) {
	for _, c := range engineOpsCorpus { // run by go test under their own names
		if flag.Lookup("test.fuzz").Value.String() != "" {
			f.Add(c.cfg.code(), c.fixture, c.topoSeed, c.opSeed, []byte(nil))
		}
	}
	f.Add(opsConfig{kind: 2, budget: 3, policy: RouteMinLoad, workers: 4}.code(), uint16(1), int64(5), int64(0),
		[]byte{9, 40, 0, 4, 8, 12, 16, 1, 2, 3, 11, 7, 6, 0, 14, 13, 5, 12, 0, 15, 0, 2})
	f.Add(opsConfig{kind: 1, budget: 2, admission: 1, workers: 1}.code(), uint16(0), int64(9), int64(0),
		[]byte{0, 3, 1, 9, 2, 5, 11, 3, 7, 1, 8, 0, 12, 0, 14})
	f.Fuzz(func(t *testing.T, cfg, fixture uint16, topoSeed, opSeed int64, ops []byte) {
		runEngineOps(t, opsCorpusEntry{cfg: decodeOpsConfig(cfg), fixture: fixture, topoSeed: topoSeed, opSeed: opSeed}, ops)
	})
}

// opsCorpusEntry is one seeded stream: n ops drawn from opSeed (0 means
// opsDefaultOps), and the least it must exercise, in counts and in the
// percentage of add and reroute verdicts the model predicted.
type opsCorpusEntry struct {
	name             string
	cfg              opsConfig
	fixture          uint16
	topoSeed, opSeed int64
	n                int
	min              opsCounts
	share            int
}

// engineOpsCorpus keeps the fixtures, seeds, budgets and layouts of the
// randomized churn tests FuzzEngineOps replaced, with at least each
// one's op count, and of the snapshot, stale-id and Close tests it
// subsumes. Each runs under its test's name. The streams are the
// fuzzer's decoding of each seed, not the old tests' rng sequences.
var engineOpsCorpus = []opsCorpusEntry{
	{"session-churn", opsConfig{workers: 1}, opsFixtureID(opsUnion, 1, 15, opsEnds4Dense), 11, 17, 1000, opsCounts{accepted: 300}, 90},
	{"sharded/shortest", opsConfig{kind: 1, workers: 4}, opsFixtureID(opsUnion, 5, 12, opsEnds3), 101, 7, 630, opsCounts{accepted: 150}, 90},
	{"sharded/min-load", opsConfig{kind: 1, policy: RouteMinLoad, workers: 4}, opsFixtureID(opsUnion, 5, 12, opsEnds3), 101, 7, 630, opsCounts{accepted: 150}, 90},
	{"twolevel/shortest", opsConfig{kind: 2, workers: 4}, opsFixtureID(opsGlued, 5, 14, opsEnds3), 211, 19, 850, opsCounts{accepted: 150, region: 100, overlay: 100}, 70},
	{"twolevel/min-load", opsConfig{kind: 2, policy: RouteMinLoad, workers: 4}, opsFixtureID(opsGlued, 5, 14, opsEnds3), 211, 19, 850, opsCounts{accepted: 150, region: 100, overlay: 100}, 70},
	{"budget-cycle-free/w=1", opsConfig{budget: 1, workers: 1}, opsFixtureID(opsUnion, 1, 24, opsEnds4), 131, 133, 400, opsCounts{accepted: 50, rejected: 20}, 90},
	{"budget-cycle-free/w=2", opsConfig{budget: 2, workers: 1}, opsFixtureID(opsUnion, 1, 24, opsEnds4), 131, 134, 400, opsCounts{accepted: 50, rejected: 20}, 90},
	{"budget-cycle-free/w=4", opsConfig{budget: 4, workers: 1}, opsFixtureID(opsUnion, 1, 24, opsEnds4), 131, 136, 400, opsCounts{accepted: 50, rejected: 20}, 90},
	{"budget-rollback-probe/w=2", opsConfig{budget: 2, workers: 1, probe: true}, opsFixtureID(opsUnion, 1, 24, opsEnds4), 131, 143, 300, opsCounts{accepted: 40, rejected: 20}, 0},
	{"budget-rollback-probe/w=4", opsConfig{budget: 4, workers: 1, probe: true}, opsFixtureID(opsUnion, 1, 24, opsEnds4), 131, 145, 300, opsCounts{accepted: 40, rejected: 20}, 0},
	{"budget-internal-cycle/w=2", opsConfig{budget: 2, workers: 1}, opsFixtureID(opsGadget, 3, 8, opsEnds3), 4, 153, 300, opsCounts{accepted: 40, rejected: 20}, 0},
	{"budget-internal-cycle/w=3", opsConfig{budget: 3, workers: 1}, opsFixtureID(opsGadget, 3, 8, opsEnds3), 4, 154, 300, opsCounts{accepted: 40, rejected: 20}, 0},
	{"budget-retry", opsConfig{budget: 2, admission: opsRetry, workers: 1}, opsFixtureID(opsUnion, 1, 24, opsEnds4Dense), 161, 162, 500, opsCounts{accepted: 50, rejected: 20, retried: 2}, 90},
	{"budget-engine/w=2", opsConfig{kind: 1, budget: 2, workers: 4, fixed: true}, opsFixtureID(opsUnion, 4, 20, opsEnds4), 171, 174, 960, opsCounts{accepted: 100, rejected: 50}, 90},
	{"budget-engine/w=4", opsConfig{kind: 1, budget: 4, workers: 4, fixed: true}, opsFixtureID(opsUnion, 4, 20, opsEnds4), 171, 176, 960, opsCounts{accepted: 100, rejected: 50}, 90},
	{"budget-engine-two-level/w=4", opsConfig{kind: 3, budget: 4, workers: 4, fixed: true}, opsFixtureID(opsGlued, 4, 16, opsEnds3), 181, 187, 960, opsCounts{accepted: 100, rejected: 50, region: 100, overlay: 100}, 35},
	{"budget-engine-two-level/w=5", opsConfig{kind: 3, budget: 5, workers: 4, fixed: true}, opsFixtureID(opsGlued, 4, 16, opsEnds3), 181, 188, 960, opsCounts{accepted: 100, rejected: 50, region: 100, overlay: 100}, 35},
	{"fault-session", opsConfig{budget: 3, workers: 1}, opsFixtureID(opsUnion, 2, 12, opsEnds3), 131, 997, 1000, opsCounts{cuts: 20, affected: 20, accepted: 100, rejected: 20}, 60},
	{"fault-engine", opsConfig{kind: 1, budget: 4, workers: 4, fixed: true}, opsFixtureID(opsUnion, 3, 12, opsEnds3), 313, 733, 800, opsCounts{cuts: 15, affected: 15, accepted: 100, rejected: 20}, 60},
	{"addarc-two-level", opsConfig{kind: 2, budget: 8, workers: 4}, opsFixtureID(opsGlued, 4, 14, opsEnds3), 571, 572, 1200, opsCounts{arcAdds: 10, cuts: 10, region: 100, overlay: 100}, 10},
	{"retry-after-addarc", opsConfig{kind: 1, budget: 2, admission: opsRetry, workers: 1}, opsFixtureID(opsUnion, 1, 24, opsEnds4Dense), 161, 163, 600, opsCounts{arcAdds: 5, grownRetries: 10}, 0},
	{"snapshot/plain", opsConfig{kind: 1, workers: 4}, opsFixtureID(opsUnion, 4, 12, opsEnds3), 901, 11, 300, opsCounts{cuts: 3}, 0},
	{"snapshot/two-level", opsConfig{kind: 2, workers: 4}, opsFixtureID(opsGlued, 4, 14, opsEnds3), 902, 11, 300, opsCounts{cuts: 3, region: 30, overlay: 30}, 0},
	{"addarc-closed", opsConfig{kind: 1, workers: 1}, opsFixtureID(opsUnion, 2, 12, opsEnds3), 531, 3, 100, opsCounts{accepted: 20}, 0},
	{"close", opsConfig{kind: 1, workers: 1}, opsFixtureID(opsUnion, 3, 12, opsEnds3), 131, 1, 100, opsCounts{accepted: 20}, 0},
	{"snapshot-post-close", opsConfig{kind: 1, workers: 4}, opsFixtureID(opsUnion, 3, 12, opsEnds3), 71, 2, 100, opsCounts{accepted: 20}, 0},
	{"stale-session", opsConfig{workers: 1}, opsFixtureID(opsUnion, 1, 8, opsEnds3), 91, 92, 300, opsCounts{stale: 10}, 0},
	{"stale-engine", opsConfig{kind: 1, workers: 1}, opsFixtureID(opsUnion, 3, 12, opsEnds3), 91, 93, 300, opsCounts{stale: 10}, 0},
	{"twolevel-reroute", opsConfig{kind: 2, policy: RouteMinLoad, workers: 4}, opsFixtureID(opsGlued, 4, 14, opsEnds3), 401, 17, 400, opsCounts{rerouted: 10, region: 50, overlay: 50}, 0},
	{"determinism/sharded", opsConfig{kind: 1, workers: 4}, opsFixtureID(opsUnion, 6, 12, opsEnds3), 33, 6, 300, opsCounts{}, 0},
	{"determinism/two-level", opsConfig{kind: 2, workers: 4}, opsFixtureID(opsGlued, 4, 14, opsEnds3), 307, 8, 300, opsCounts{region: 30, overlay: 30}, 0},
}

// runEngineOpsCorpus runs the corpus entries named prefix or
// prefix/<subtest>, the latter as subtests.
func runEngineOpsCorpus(t *testing.T, prefix string) {
	for _, c := range engineOpsCorpus {
		c := c
		run := func(t *testing.T) { runEngineOps(t, c, nil) }
		if c.name == prefix {
			run(t)
		} else if sub, ok := strings.CutPrefix(c.name, prefix+"/"); ok {
			t.Run(sub, run)
		}
	}
}

func TestSessionChurnEquivalence(t *testing.T)     { runEngineOpsCorpus(t, "session-churn") }
func TestShardedEquivalence(t *testing.T)          { runEngineOpsCorpus(t, "sharded") }
func TestTwoLevelEquivalence(t *testing.T)         { runEngineOpsCorpus(t, "twolevel") }
func TestBudgetChurnCycleFree(t *testing.T)        { runEngineOpsCorpus(t, "budget-cycle-free") }
func TestBudgetChurnRollbackProbe(t *testing.T)    { runEngineOpsCorpus(t, "budget-rollback-probe") }
func TestBudgetChurnInternalCycle(t *testing.T)    { runEngineOpsCorpus(t, "budget-internal-cycle") }
func TestBudgetChurnRetryStrategy(t *testing.T)    { runEngineOpsCorpus(t, "budget-retry") }
func TestBudgetedEngineChurn(t *testing.T)         { runEngineOpsCorpus(t, "budget-engine") }
func TestBudgetedEngineChurnTwoLevel(t *testing.T) { runEngineOpsCorpus(t, "budget-engine-two-level") }
func TestRandomFaultChurnSession(t *testing.T)     { runEngineOpsCorpus(t, "fault-session") }
func TestRandomFaultChurnEngine(t *testing.T)      { runEngineOpsCorpus(t, "fault-engine") }
func TestAddArcRandomizedEquivalence(t *testing.T) { runEngineOpsCorpus(t, "addarc-two-level") }
func TestRetryAltRouteAfterAddArc(t *testing.T)    { runEngineOpsCorpus(t, "retry-after-addarc") }
func TestAddArcClosed(t *testing.T)                { runEngineOpsCorpus(t, "addarc-closed") }
func TestSnapshotConsistencyContract(t *testing.T) { runEngineOpsCorpus(t, "snapshot") }
func TestEngineCloseIdempotent(t *testing.T)       { runEngineOpsCorpus(t, "close") }
func TestSnapshotPostClose(t *testing.T)           { runEngineOpsCorpus(t, "snapshot-post-close") }
func TestStaleSessionIDCleanErrors(t *testing.T)   { runEngineOpsCorpus(t, "stale-session") }
func TestStaleShardedIDCleanErrors(t *testing.T)   { runEngineOpsCorpus(t, "stale-engine") }
func TestTwoLevelReroute(t *testing.T)             { runEngineOpsCorpus(t, "twolevel-reroute") }
func TestShardedDeterminism(t *testing.T)          { requireWorkerIndependent(t, "determinism/sharded") }
func TestTwoLevelDeterminism(t *testing.T)         { requireWorkerIndependent(t, "determinism/two-level") }

// requireWorkerIndependent runs a corpus stream at 1 and at 4 workers:
// shard completion order must not leak into any route or wavelength.
func requireWorkerIndependent(t *testing.T, name string) {
	c := engineOpsCorpus[slices.IndexFunc(engineOpsCorpus, func(c opsCorpusEntry) bool { return c.name == name })]
	c.cfg.workers = 1
	one := runEngineOps(t, c, nil)
	c.cfg.workers = 4
	if four := runEngineOps(t, c, nil); one != four {
		t.Fatalf("outcomes diverge across worker counts:\n%s\n%s", one, four)
	}
}

// opsCounts tallies what a run exercised: ops run, capacity adds and
// cuts applied, live paths the cuts hit, admission verdicts, retries
// admitted on an alternate route (grownRetries: after a capacity add),
// reroutes that moved a route, ops on removed or never-issued handles,
// ops on region lanes and on the overlay lanes of two-level
// components, and add and reroute verdicts predicted or adopted.
type opsCounts struct {
	ops, arcAdds, cuts, affected, accepted, rejected, retried, grownRetries int
	rerouted, stale, region, overlay, predicted, adopted                    int
}

// opsConfig is one engine configuration of FuzzEngineOps.
type opsConfig struct {
	kind      int // 0 Session, 1 flat engine (WithSubshardThreshold(0)), 2 and 3 two-level engine (threshold 8, 16)
	budget    int // one of opsBudgets; 0 = none
	policy    RoutingPolicy
	admission int // index into opsAdmissions
	workers   int // 1 or 4
	probe     bool
	fixed     bool // no capacity adds
}

var (
	opsBudgets    = [...]int{0, 1, 2, 3, 4, 5, 8}
	opsAdmissions = [...]AdmissionStrategy{AdmissionReject, AdmissionRetryAltRoute, AdmissionDegrade}
)

const opsRetry, opsDegrade = 1, 2 // indices into opsAdmissions

func decodeOpsConfig(code uint16) opsConfig {
	v := int(code)
	next := func(n int) int { d := v % n; v /= n; return d }
	return opsConfig{next(4), opsBudgets[next(len(opsBudgets))], RoutingPolicy(next(3)), next(3), 1 + 3*next(2), next(2) == 1, next(2) == 1}
}

// code is decodeOpsConfig's inverse.
func (c opsConfig) code() uint16 {
	code := uint16(0)
	for decodeOpsConfig(code) != c {
		code++
	}
	return code
}

// Fixture kinds: disjoint unions of Theorem-1 DAGs, the same glued into
// one giant component, the internal-cycle gadget, and unions of
// UPP-DAGs or of random DAGs.
const (
	opsUnion = iota
	opsGlued
	opsGadget
	opsUPP
	opsRandom
	opsKinds
)

// Theorem-1 part shapes: RandomNoInternalCycleDAG's source and sink
// counts and extra-arc probability.
const (
	opsEnds3 = iota
	opsEnds4
	opsEnds4Dense
)

var (
	opsSizes  = [...]int{8, 12, 14, 15, 16, 20, 24}
	opsShapes = [...]struct {
		ends   int
		extraP float64
	}{{3, 0.25}, {4, 0.25}, {4, 0.3}}
)

func opsFixtureID(kind, parts, size, shape int) uint16 {
	return uint16(kind + opsKinds*(parts-1+6*(slices.Index(opsSizes[:], size)+len(opsSizes)*shape)))
}

// opsFixture builds the topology of a fixture id: a kind, 1 to 6 parts,
// a part size and a part shape, each part drawn from seed plus its
// index. The gadget kind is InternalCycleGadget(parts+1) alone.
func opsFixture(t testing.TB, id uint16, seed int64) *digraph.Digraph {
	t.Helper()
	v := int(id)
	next := func(n int) int { d := v % n; v /= n; return d }
	kind, parts, n, shape := next(opsKinds), 1+next(6), opsSizes[next(len(opsSizes))], opsShapes[next(len(opsShapes))]
	if kind == opsGadget {
		g, _, err := gen.InternalCycleGadget(parts + 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gs := make([]*digraph.Digraph, parts)
	for i := range gs {
		var err error
		switch kind {
		case opsUPP:
			gs[i] = gen.RandomUPPDAG(n, 3*n, seed+int64(i))
		case opsRandom:
			gs[i] = gen.RandomDAG(n, 2*n, seed+int64(i))
		default:
			gs[i], err = gen.RandomNoInternalCycleDAG(n, shape.ends, shape.ends, shape.extraP, seed+int64(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if kind == opsGlued {
		g, _, err := gen.GlueChain(gs...)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	insts := make([]gen.Instance, len(gs))
	for i, g := range gs {
		insts[i] = gen.Instance{G: g}
	}
	g, _ := gen.DisjointUnion(insts...)
	return g
}

// opsLane is one lane of the target: its session, and the translations
// of its identifiers to the target topology (nil for a Session; an
// engine lane has vertices, though an isolated vertex has no arcs).
type opsLane struct {
	sess     *Session
	shard    int32
	comp     int32
	region   bool
	twoLevel bool // the lane's component has region lanes
	toGV     []digraph.Vertex
	toGA     []digraph.ArcID
}

func engineLane(sh *engineShard) *opsLane {
	return &opsLane{sh.sess, sh.idx, sh.comp.idx, sh.kind == shardRegion, len(sh.comp.regionShards) > 0, sh.toGlobalVertex, sh.toGlobalArc}
}

func (l *opsLane) graph() *digraph.Digraph { return l.sess.net.Topology }

// global translates a lane-local path to the target topology g.
func (l *opsLane) global(t *testing.T, g *digraph.Digraph, p *dipath.Path) *dipath.Path {
	if l.toGV == nil {
		return p
	}
	var q *dipath.Path
	var err error
	if p.NumArcs() == 0 {
		q, err = dipath.FromVertices(g, l.toGV[p.First()])
	} else {
		arcs := make([]digraph.ArcID, p.NumArcs())
		for i, a := range p.Arcs() {
			arcs[i] = l.toGA[a]
		}
		q, err = dipath.FromArcs(g, arcs...)
	}
	if err != nil {
		t.Fatalf("lane %d path %v does not translate: %v", l.shard, p, err)
	}
	return q
}

// local translates a target arc or vertex to the lane's (-1 if absent).
func (l *opsLane) localArc(a digraph.ArcID) digraph.ArcID {
	if l.toGV == nil {
		return a
	}
	return digraph.ArcID(slices.Index(l.toGA, a))
}

func (l *opsLane) localReq(req route.Request) route.Request {
	if l.toGV == nil {
		return req
	}
	return route.Request{Src: digraph.Vertex(slices.Index(l.toGV, req.Src)), Dst: digraph.Vertex(slices.Index(l.toGV, req.Dst))}
}

// precheck reports whether the lane admits by the Theorem-1 load rule:
// budgeted, without the rollback probe, no internal cycle in its graph.
func (l *opsLane) precheck(cfg opsConfig) bool {
	return l.sess.budget > 0 && !cfg.probe && !cycles.HasInternalCycle(l.graph())
}

// opsTarget is the configuration under test: a Session s or an engine
// e. Handles are ShardedIDs; a Session's live in shard 0.
type opsTarget struct {
	s *Session
	e *ShardedEngine
}

func (tg opsTarget) topology() *digraph.Digraph {
	if tg.e != nil {
		return tg.e.net.Topology
	}
	return tg.s.net.Topology
}

// apply runs ops as one engine batch, or one by one through the
// single-op API (a Session's batch).
func (tg opsTarget) apply(ops []BatchOp, single bool) []BatchResult {
	if tg.e != nil && !single {
		return tg.e.ApplyBatch(ops)
	}
	res := make([]BatchResult, len(ops))
	for i, op := range ops {
		r := &res[i]
		switch {
		case tg.e != nil:
			var err error
			if *r, err = tg.e.applyOne(op); err != nil {
				r.Err = err
			}
		case op.Kind == BatchAdd:
			r.ID.ID, r.Err = tg.s.Add(op.Req)
		case op.Kind == BatchRemove:
			r.Err = tg.s.Remove(op.ID.ID)
		default:
			r.Changed, r.Err = tg.s.Reroute(op.ID.ID)
		}
	}
	return res
}

// Event kinds of opsTarget.event.
const (
	opsFailArc = iota
	opsRestoreArc
	opsRevive
	opsAddArc
)

func (tg opsTarget) event(kind int, a digraph.ArcID, req route.Request) (err error) {
	switch {
	case tg.e == nil && kind == opsFailArc:
		_, err = tg.s.FailArc(a)
	case tg.e == nil && kind == opsRestoreArc:
		_, err = tg.s.RestoreArc(a)
	case tg.e == nil:
		tg.s.Revive()
	case kind == opsFailArc:
		_, err = tg.e.FailArc(a)
	case kind == opsRestoreArc:
		_, err = tg.e.RestoreArc(a)
	case kind == opsRevive:
		_, err = tg.e.Revive()
	default:
		_, err = tg.e.AddArc(req.Dst, req.Src)
	}
	return err
}

// dispatch names the lane an add runs on and its lane-local request.
func (tg opsTarget) dispatch(req route.Request) (*opsLane, route.Request, error) {
	if tg.e == nil {
		return &opsLane{sess: tg.s}, req, nil
	}
	tg.e.mu.Lock()
	defer tg.e.mu.Unlock()
	sh, lreq, err := tg.e.dispatchAdd(req)
	if err != nil {
		return nil, req, err
	}
	return engineLane(sh), lreq, nil
}

// resolve names the lane holding a live handle and its id there.
func (tg opsTarget) resolve(id ShardedID) (*opsLane, SessionID, error) {
	if tg.e == nil {
		_, err := tg.s.lookup(id.ID)
		return &opsLane{sess: tg.s}, id.ID, err
	}
	tg.e.mu.Lock()
	defer tg.e.mu.Unlock()
	sh, lid, err := tg.e.resolveID(id)
	if err == nil {
		_, err = sh.sess.lookup(lid)
	}
	if err != nil {
		return nil, 0, err
	}
	return engineLane(sh), lid, nil
}

// lanes lists the live lanes, each with whether it spans its component.
func (tg opsTarget) lanes() (ls []*opsLane, spans []bool) {
	if tg.e == nil {
		return []*opsLane{{sess: tg.s}}, []bool{true}
	}
	for _, c := range tg.e.comps {
		if !c.dead {
			for _, rs := range c.regionShards {
				ls, spans = append(ls, engineLane(rs)), append(spans, false)
			}
			ls, spans = append(ls, engineLane(c.overlay)), append(spans, len(c.regionShards) == 0)
		}
	}
	return ls, spans
}

// opsReads is what the target answers about its state.
type opsReads struct {
	len, dark, pi, lambda, overlay, accepted, rejected int
	loads                                              []int
	verify                                             error
	prov                                               *Provisioning
}

func (tg opsTarget) reads() opsReads {
	if tg.e == nil {
		s, a := tg.s, tg.s.AdmissionStats()
		n, _ := s.NumLambda()
		prov, _ := s.Provisioning()
		return opsReads{s.Len(), s.DarkLive(), s.Pi(), n, 0, a.Accepted, a.Rejected, s.ArcLoads(), s.Verify(), prov}
	}
	e, st := tg.e, tg.e.Stats()
	n, _ := e.NumLambda()
	o, _ := e.OverlayLambda()
	prov, _ := e.Provisioning()
	return opsReads{e.Len(), e.DarkLive(), e.Pi(), n, o, st.Accepted(), st.Rejected(), e.ArcLoads(), e.Verify(), prov}
}

// opsDefaultOps is the length of a stream drawn from a seed.
const opsDefaultOps = 300

// runEngineOps builds the configuration, runs the stream (ops, or c.n
// ops drawn from c.opSeed) through opsModel (see FuzzEngineOps),
// checks that it exercised c.min and c.share, and returns the digest
// before the Close.
func runEngineOps(t *testing.T, c opsCorpusEntry, ops []byte) string {
	cfg := c.cfg
	g := opsFixture(t, c.fixture, c.topoSeed)
	pool := route.NewRouter(g).AllToAll()
	net := &Network{Topology: g}
	sopts := []SessionOption{WithRoutingPolicy(cfg.policy), WithAdmissionStrategy(opsAdmissions[cfg.admission])}
	if cfg.probe {
		sopts = append(sopts, withAdmissionRollbackProbe())
	}
	var tg opsTarget
	var err error
	if cfg.kind == 0 {
		tg.s, err = net.NewSession(append(sopts, WithWavelengthBudget(cfg.budget))...)
	} else {
		tg.e, err = net.NewShardedEngine(WithShardWorkers(cfg.workers), WithSubshardThreshold(8*(cfg.kind-1)),
			WithEngineWavelengthBudget(cfg.budget), WithShardSessionOptions(sopts...))
	}
	switch {
	case err != nil && cfg.policy == RouteUPP:
		t.Skipf("UPP routing on a fixture that is not UPP: %v", err)
	case err != nil && cfg.budget == 1 && strings.HasSuffix(err.Error(), "use WithSubshardThreshold(0)"):
		return "" // a budget of 1 cannot band a two-level component
	case err != nil:
		t.Fatal(err)
	case tg.e != nil:
		defer tg.e.Close()
		if b := tg.e.Stats().Budget; b != cfg.budget {
			t.Fatalf("engine budget %d, want %d", b, cfg.budget)
		}
	}
	m := &opsModel{t: t, cfg: cfg, tg: tg, pool: pool, ops: ops, unswept: map[int32]bool{}}
	if len(ops) == 0 {
		m.rng = rand.New(rand.NewSource(c.opSeed))
		if c.n == 0 {
			c.n = opsDefaultOps
		}
	}
	m.sync(nil, false)
	m.check(false)
	for m.rng != nil && m.counts.ops < c.n || m.rng == nil && len(m.ops) > 0 {
		m.step()
	}
	out := fmt.Sprint(m.digest(true))
	if tg.e == nil {
		m.counts.affected = tg.s.FailureStats().Affected
	} else {
		st := tg.e.Stats()
		m.counts.affected = st.Plain.Affected + st.Region.Affected + st.Overlay.Affected
		m.close()
	}
	got, want := reflect.ValueOf(m.counts), reflect.ValueOf(c.min)
	for i := 0; i < want.NumField(); i++ {
		if got.Field(i).Int() < want.Field(i).Int() {
			t.Errorf("the stream ran %s %d, want at least %d", want.Type().Field(i).Name, got.Field(i).Int(), want.Field(i).Int())
		}
	}
	if share := 100 * m.counts.predicted / max(1, m.counts.predicted+m.counts.adopted); share < c.share {
		t.Errorf("the model predicted %d%% of the verdicts, want at least %d%%", share, c.share)
	}
	t.Logf("%+v", m.counts)
	return out
}

// close closes the engine, which publishes a closed snapshot. Then
// Close from several goroutines at once must return nil, and every op
// and event must fail with ErrEngineClosed, leaving the state and the
// snapshot sequence as they were.
func (m *opsModel) close() {
	e := m.tg.e
	if err := e.Close(); err != nil {
		m.t.Fatalf("Close: %v", err)
	}
	m.closed = true
	m.check(false)
	if s := e.Snapshot(); !s.Closed() {
		m.t.Fatal("the snapshot after Close does not report Closed")
	} else {
		s.Release()
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Close(); err != nil {
				m.t.Errorf("Close again: %v", err)
			}
		}()
	}
	wg.Wait()
	for _, op := range []BatchOp{AddOp(m.request()), RemoveOp(m.pick()), RerouteOp(m.pick())} {
		m.single(op)
	}
	m.run([]BatchOp{AddOp(m.request()), RemoveOp(m.pick()), RerouteOp(m.pick())}, false)
	for kind := opsFailArc; kind <= opsAddArc; kind++ {
		m.event(kind, 0, m.request(), false)
	}
	if seq := lastSeqOf(e); seq != m.seq {
		m.t.Fatalf("ops after Close moved the snapshot sequence from %d to %d", m.seq, seq)
	}
}

// opsEntry is one live request of the model: its handle, its route
// (parked when dark; nil until the next boundary when adopted), flags.
type opsEntry struct {
	req   route.Request
	id    ShardedID
	path  *dipath.Path
	dark  bool
	be    bool // admitted best-effort
	lane  int32
	known bool // path is the model's prediction
}

// opsModel is FuzzEngineOps' reference model.
type opsModel struct {
	t       *testing.T
	cfg     opsConfig
	tg      opsTarget
	pool    []route.Request
	ops     []byte     // the rest of the stream, unless drawn from rng
	rng     *rand.Rand // draws the stream
	live    []*opsEntry
	stale   []ShardedID     // removed handles, for the error paths
	parked  []*opsEntry     // dark entries in park order
	unswept map[int32]bool  // lanes a Reroute or AddArc moved capacity on since their last sweep
	refused []digraph.ArcID // arcs of capacity adds a lane refused: RestoreArc refuses them
	counts  opsCounts
	seq     uint64 // last snapshot sequence number seen
	closed  bool
}

// opsPlanned is one op of a batch, its lane resolved beforehand.
type opsPlanned struct {
	k    int
	lane *opsLane
	lreq route.Request // BatchAdd: the lane-local request
	err  error         // dispatch or resolution failure
	e    *opsEntry     // BatchRemove/BatchReroute: the live target
}

// opsBatch is one batch's replay state.
type opsBatch struct {
	unsure  map[int32]bool // components the model stopped predicting
	fragile map[int32]bool // lanes holding dark or best-effort entries
	gone    map[*opsEntry]bool
}

// next hands out the stream's next byte; a byte stream ends in zeros.
func (m *opsModel) next() int {
	var b [1]byte
	switch {
	case m.rng != nil:
		m.rng.Read(b[:])
	case len(m.ops) > 0:
		b[0], m.ops = m.ops[0], m.ops[1:]
	}
	return int(b[0])
}

func (m *opsModel) step() {
	g := m.tg.topology()
	switch m.next() % 16 {
	case 0, 1, 2, 3, 4, 5:
		m.single(AddOp(m.request()))
	case 6, 7:
		m.single(RemoveOp(m.pick()))
	case 8:
		m.single(RerouteOp(m.pick()))
	case 9, 10:
		ops := make([]BatchOp, 1+m.next()%(2*serialBatchThreshold))
		for i := range ops {
			switch m.next() % 4 {
			case 0, 1:
				ops[i] = AddOp(m.request())
			case 2:
				ops[i] = RemoveOp(m.pick())
			default:
				ops[i] = RerouteOp(m.pick())
			}
		}
		m.run(ops, false)
	case 11:
		a := digraph.ArcID(m.next() % g.NumArcs())
		m.event(opsFailArc, a, route.Request{}, g.ArcFailed(a))
	case 12: // mostly a repair of a cut arc
		n, a := g.NumArcs(), digraph.ArcID(m.next()%g.NumArcs())
		for i := 0; i < n && !g.ArcFailed(a) && m.next()%4 != 0; i++ {
			a = (a + 1) % digraph.ArcID(n)
		}
		m.event(opsRestoreArc, a, route.Request{}, !g.ArcFailed(a) || slices.Contains(m.refused, a))
	case 13:
		if m.tg.e != nil && !m.cfg.fixed { // Sessions take no capacity adds
			m.event(opsAddArc, -1, m.request(), false)
		}
	default:
		m.event(opsRevive, -1, route.Request{}, false)
	}
}

// request draws a routable pair of the pool, or now and then any pair.
func (m *opsModel) request() route.Request {
	if b := m.next(); b < 240 && len(m.pool) > 0 {
		return m.pool[(b<<8|m.next())%len(m.pool)]
	}
	n := m.tg.topology().NumVertices()
	return route.Request{Src: digraph.Vertex(m.next() % n), Dst: digraph.Vertex(m.next() % n)}
}

// pick draws a live handle, or now and then a removed or never-issued
// one.
func (m *opsModel) pick() ShardedID {
	switch b := m.next(); {
	case len(m.live) > 0 && b < 240:
		return m.live[b%len(m.live)].id
	case len(m.stale) > 0 && b < 250:
		return m.stale[b%len(m.stale)]
	default:
		return ShardedID{Shard: int32(b % 3), ID: packID(int32(b%8), 1<<31)}
	}
}

// single runs one op outside a batch; a failed one must leave the
// digest unchanged. A refused add on a probe lane may leave the lane's
// colors repacked (core.Incremental.AddUnderLimit keeps the repack it
// ran), so there the digest leaves colors out.
func (m *opsModel) single(op BatchOp) {
	l, _, err := m.tg.dispatch(op.Req)
	colors := op.Kind != BatchAdd || err != nil || l.sess.budget == 0 || l.precheck(m.cfg)
	before := m.digest(colors)
	if res := m.run([]BatchOp{op}, true); res[0].Err != nil {
		if after := m.digest(colors); !slices.Equal(after, before) {
			m.t.Fatalf("failed %v (%v) changed the state:\n%v\n%v", op, res[0].Err, before, after)
		}
	}
}

// run applies ops, through the single-op API when single, and replays
// them on the model in the engine's effective order.
func (m *opsModel) run(ops []BatchOp, single bool) []BatchResult {
	plan := make([]opsPlanned, len(ops))
	for k, op := range ops {
		p := &plan[k]
		p.k = k
		if op.Kind == BatchAdd {
			p.lane, p.lreq, p.err = m.tg.dispatch(op.Req)
		} else if i := slices.IndexFunc(m.live, func(e *opsEntry) bool { return e.id == op.ID }); i >= 0 {
			p.e = m.live[i]
			p.lane, _, p.err = m.tg.resolve(op.ID)
		}
	}
	res := m.tg.apply(ops, single)
	m.counts.ops += len(ops)
	if m.closed {
		for k := range res {
			if !errors.Is(res[k].Err, ErrEngineClosed) {
				m.t.Fatalf("%v after Close: %v", ops[k], res[k].Err)
			}
		}
		return res
	}
	b := &opsBatch{unsure: map[int32]bool{}, fragile: map[int32]bool{}, gone: map[*opsEntry]bool{}}
	for _, e := range m.live {
		b.fragile[e.lane] = b.fragile[e.lane] || e.dark || e.be
	}
	var phase1, phase2 []*opsPlanned
	for k := range plan {
		if plan[k].lane != nil && plan[k].lane.region {
			phase1 = append(phase1, &plan[k])
		} else {
			phase2 = append(phase2, &plan[k])
		}
	}
	for _, p := range phase1 {
		if esc := m.replay(ops[p.k], p, res[p.k], b); esc != nil {
			phase2 = append(phase2, esc)
		}
	}
	slices.SortStableFunc(phase2, func(x, y *opsPlanned) int { return x.k - y.k })
	for _, p := range phase2 {
		m.replay(ops[p.k], p, res[p.k], b)
	}
	m.sync(b.unsure, false)
	m.check(false)
	return res
}

// replay checks one op's result against the model's prediction and
// applies it to the model. It returns the overlay re-run of a region
// add the region lane could not route on an escalating component.
func (m *opsModel) replay(op BatchOp, p *opsPlanned, res BatchResult, b *opsBatch) *opsPlanned {
	t, l := m.t, p.lane
	switch {
	case l == nil || p.err != nil:
	case l.region:
		m.counts.region++
	case l.twoLevel:
		m.counts.overlay++
	}
	switch {
	case p.err != nil || op.Kind != BatchAdd && (p.e == nil || b.gone[p.e]):
		removed := op.Kind != BatchAdd && (p.e != nil || slices.Contains(m.stale, op.ID))
		if res.Err == nil || removed && !errors.Is(res.Err, ErrUnknownSession) {
			t.Fatalf("%v on a handle or request the model refuses: %v", op, res.Err)
		}
		if op.Kind != BatchAdd {
			m.counts.stale++
		}
		return nil
	case op.Kind == BatchReroute:
		m.reroute(op, p, res, b)
		return nil
	case op.Kind == BatchRemove:
		if res.Err != nil {
			t.Fatalf("%v: %v", op, res.Err)
		}
		b.gone[p.e] = true
		m.live = slices.DeleteFunc(m.live, func(e *opsEntry) bool { return e == p.e })
		m.stale = append(m.stale[max(len(m.stale)-7, 0):], op.ID)
		if !p.e.dark {
			// The removal sweeps its lane: the model replays the sweep
			// unless it may promote or admit by the rollback probe.
			if l.sess.budget > 0 && !l.precheck(m.cfg) || m.cfg.admission == opsDegrade {
				b.unsure[l.comp] = b.unsure[l.comp] || b.fragile[l.shard]
			} else if !b.unsure[l.comp] {
				m.sweep(l)
			}
			m.unswept[l.shard] = false
		}
		return nil
	case b.unsure[l.comp]:
		m.counts.adopted++
		switch {
		case res.Err == nil:
			m.counts.accepted++
			m.live = append(m.live, &opsEntry{req: op.Req, id: res.ID})
		case errors.Is(res.Err, ErrBudgetExceeded):
			m.counts.rejected++
		}
		return nil
	}
	loads := m.loads(nil, nil)
	path, err := m.route(l, p.lreq, loads)
	if err != nil {
		var nr route.ErrNoRoute
		if e := m.tg.e; l.region && e.comps[l.comp].escalate && errors.As(err, &nr) {
			// The escalating component re-runs the add on its overlay lane.
			return &opsPlanned{k: p.k, lane: engineLane(e.comps[l.comp].overlay), lreq: route.Request{Src: e.localV[op.Req.Src], Dst: e.localV[op.Req.Dst]}}
		}
		if res.Err == nil || errors.Is(res.Err, ErrBudgetExceeded) {
			t.Fatalf("%v: the model finds no route (%v), the target says %v", op, err, res.Err)
		}
		m.counts.predicted++
		return nil
	}
	want, be, retried := path, false, false
	if l.sess.budget > 0 && !l.precheck(m.cfg) {
		// The rollback probe's verdict is a heuristic: adopt it. An
		// accepted path must keep the lane's own family within its band
		// (λ ≥ π), unless best-effort paths hold colors past the band.
		m.counts.adopted++
		if res.Err != nil {
			if !errors.Is(res.Err, ErrBudgetExceeded) || m.cfg.admission == opsDegrade {
				t.Fatalf("%v on a probe lane: %v", op, res.Err)
			}
			m.counts.rejected++
			return nil
		}
		own, got := m.loads(l, nil), m.pathOf(res.ID)
		if alt := m.retry(l, p.lreq, path, loads); alt != nil && got.Equal(alt) {
			path, retried = alt, true
		}
		if !got.Equal(path) || m.cfg.admission != opsDegrade && !fits(path, own, l.sess.budget) {
			t.Fatalf("%v: the probe lane admitted %v, the model routes %v within the band", op, got, path)
		}
		want, be = got, m.cfg.admission == opsDegrade
	} else {
		m.counts.predicted++
		if l.sess.budget > 0 && !fits(path, loads, l.sess.budget) {
			switch m.cfg.admission {
			case opsDegrade:
				be = true
			case opsRetry:
				if want = m.retry(l, p.lreq, path, loads); want != nil && !fits(want, loads, l.sess.budget) {
					want = nil
				}
				retried = want != nil
			default:
				want = nil
			}
		}
	}
	if want == nil {
		if !errors.Is(res.Err, ErrBudgetExceeded) {
			t.Fatalf("%v: the model rejects, the target says %v", op, res.Err)
		}
		m.counts.rejected++
		return nil
	}
	if res.Err != nil {
		t.Fatalf("%v: the model admits %v, the target says %v", op, want, res.Err)
	}
	if got := m.pathOf(res.ID); !got.Equal(want) {
		t.Fatalf("%v: the target routes %v, the model %v", op, got, want)
	}
	m.counts.accepted++
	if retried {
		m.counts.retried++
		m.counts.grownRetries += min(m.counts.arcAdds, 1)
	}
	m.live = append(m.live, &opsEntry{req: op.Req, id: res.ID, path: want, be: be, lane: l.shard, known: true})
	b.fragile[l.shard] = b.fragile[l.shard] || be
	return nil
}

// sweep replays a revival sweep on lane l: each dark entry, oldest park
// first, relights on its routing policy's route if that fits, else on a
// different min-load detour over live arcs that fits.
func (m *opsModel) sweep(l *opsLane) {
	for _, e := range m.parked {
		if e.lane != l.shard || !e.dark || !slices.Contains(m.live, e) {
			continue
		}
		loads, req := m.loads(nil, nil), l.localReq(e.req)
		fitsLane := func(p *dipath.Path) bool { return l.sess.budget == 0 || fits(p, loads, l.sess.budget) }
		primary, err := m.route(l, req, loads)
		if err != nil || !fitsLane(primary) {
			alt, aerr := route.NewRouter(l.graph()).MinLoadPath(req, m.tracker(l, loads))
			if aerr != nil {
				continue
			}
			if alt = l.global(m.t, m.tg.topology(), alt); crossesFailure(m.tg.topology(), alt) || err == nil && alt.Equal(primary) || !fitsLane(alt) {
				continue
			}
			primary = alt
		}
		e.path, e.dark = primary, false
	}
}

// reroute replays a Reroute of a live entry.
func (m *opsModel) reroute(op BatchOp, p *opsPlanned, res BatchResult, b *opsBatch) {
	t, e, l := m.t, p.e, p.lane
	if res.Changed {
		m.counts.rerouted++
	}
	if e.dark || b.unsure[l.comp] {
		// A dark entry's reroute is a revival attempt: adopt it.
		m.counts.adopted++
		b.unsure[l.comp] = true
		m.unswept[l.shard] = m.unswept[l.shard] || res.Changed
		return
	}
	budgeted := l.sess.budget > 0 && !e.be
	if budgeted && !l.precheck(m.cfg) {
		m.counts.adopted++
	} else {
		m.counts.predicted++
	}
	loads := m.loads(nil, e)
	np, err := m.route(l, l.localReq(e.req), loads)
	switch {
	case err != nil && res.Err == nil:
		t.Fatalf("%v: the model finds no route (%v), the target rerouted", op, err)
	case err != nil:
		return
	case res.Err != nil:
		t.Fatalf("%v: %v", op, res.Err)
	}
	switch {
	case np.Equal(e.path), budgeted && l.precheck(m.cfg) && !fits(np, loads, l.sess.budget):
		if res.Changed {
			t.Fatalf("%v: the target changed the route, the model keeps %v", op, e.path)
		}
	case budgeted && !l.precheck(m.cfg):
		// As for adds, under AdmissionDegrade best-effort paths may hold
		// colors past the band.
		if res.Changed && m.cfg.admission != opsDegrade && !fits(np, m.loads(l, e), l.sess.budget) {
			t.Fatalf("%v: the probe rerouted onto %v past the band", op, np)
		}
	case !res.Changed:
		t.Fatalf("%v: the target kept %v, the model reroutes onto %v", op, e.path, np)
	}
	if res.Changed {
		e.path = np
		m.unswept[l.shard] = true
	}
}

// route routes a lane-local request from scratch on a fresh router
// over the lane's graph, against loads, and returns the route in the
// target topology. A UPP lane's graph has at most one dipath per pair,
// so its route is the shortest one.
func (m *opsModel) route(l *opsLane, req route.Request, loads []int) (*dipath.Path, error) {
	g := l.graph()
	var p *dipath.Path
	var err error
	if m.cfg.policy == RouteMinLoad {
		p, err = route.NewRouter(g).MinLoadPath(req, m.tracker(l, loads))
	} else {
		p, err = route.NewRouter(g).ShortestPath(req.Src, req.Dst)
	}
	if err != nil {
		return nil, err
	}
	return l.global(m.t, m.tg.topology(), p), nil
}

// retry is the alternate route AdmissionRetryAltRoute tries for a
// rejected path, or nil.
func (m *opsModel) retry(l *opsLane, req route.Request, rejected *dipath.Path, loads []int) *dipath.Path {
	if m.cfg.admission != opsRetry || m.cfg.policy != RouteShortest {
		return nil // min-load and UPP sessions reject without a search
	}
	alt, err := route.NewRouter(l.graph()).MinLoadPath(req, m.tracker(l, loads))
	if err != nil {
		return nil
	}
	if alt = l.global(m.t, m.tg.topology(), alt); alt.Equal(rejected) {
		return nil
	}
	return alt
}

func (m *opsModel) tracker(l *opsLane, loads []int) *load.Tracker {
	g := l.graph()
	tr := load.NewTracker(g)
	for a := 0; a < g.NumArcs(); a++ {
		ga := a
		if l.toGV != nil {
			ga = int(l.toGA[a])
		}
		for i := 0; i < loads[ga]; i++ {
			tr.AddArc(digraph.ArcID(a))
		}
	}
	return tr
}

// fits is the Theorem-1 load rule: every arc of p stays within band.
func fits(p *dipath.Path, loads []int, band int) bool {
	for _, a := range p.Arcs() {
		if loads[a]+1 > band {
			return false
		}
	}
	return true
}

// loads recomputes the per-arc loads of the lit family, without skip,
// and only of lane l's own paths (what its colorer holds) unless l is
// nil.
func (m *opsModel) loads(l *opsLane, skip *opsEntry) []int {
	loads := make([]int, m.tg.topology().NumArcs())
	for _, e := range m.live {
		if e != skip && !e.dark && e.path != nil && (l == nil || e.lane == l.shard) {
			for _, a := range e.path.Arcs() {
				loads[a]++
			}
		}
	}
	return loads
}

// pathOf reads the target's current route of a live handle.
func (m *opsModel) pathOf(id ShardedID) *dipath.Path {
	l, lid, err := m.tg.resolve(id)
	if err != nil {
		m.t.Fatalf("handle %v: %v", id, err)
	}
	p, _ := l.sess.Path(lid)
	return l.global(m.t, m.tg.topology(), p)
}

// event runs a fiber event, a sweep or a capacity add; wantErr says it
// must fail (a cut of a failed arc, a repair of a live one). A failed
// event must leave the digest unchanged; after the others the model
// adopts the target's routes and dark flags.
func (m *opsModel) event(kind int, a digraph.ArcID, req route.Request, wantErr bool) {
	before, arcs := m.digest(true), m.tg.topology().NumArcs()
	err := m.tg.event(kind, a, req)
	m.counts.ops++
	switch {
	case m.closed && !errors.Is(err, ErrEngineClosed):
		m.t.Fatalf("event %d after Close: %v", kind, err)
	case (err != nil) != wantErr && kind != opsAddArc && !m.closed:
		m.t.Fatalf("event %d on arc %d: %v, want an error: %v", kind, a, err, wantErr)
	case err != nil:
		if m.tg.topology().NumArcs() > arcs {
			m.refused = append(m.refused, digraph.ArcID(arcs))
		}
		if after := m.digest(true); !slices.Equal(after, before) {
			m.t.Fatalf("failed event %d (%v) changed the state:\n%v\n%v", kind, err, before, after)
		}
		return
	}
	switch kind {
	case opsAddArc:
		m.counts.arcAdds++
	case opsFailArc:
		m.counts.cuts++
	}
	lanes, _ := m.tg.lanes()
	for _, l := range lanes {
		switch {
		case kind == opsAddArc:
			m.unswept[l.shard] = true
		case kind == opsRevive || l.localArc(a) >= 0:
			m.unswept[l.shard] = false
		}
	}
	m.sync(nil, kind == opsAddArc)
	m.check(kind == opsRevive)
}

// sync reads every model entry back from the target: a predicted route
// must match, and every route must serve its request (over live arcs
// when lit). It then checks that each lane lists its dark entries in
// park order; reset, after a capacity add relocated entries, rebuilds
// the order instead.
func (m *opsModel) sync(unsure map[int32]bool, reset bool) {
	t, g := m.t, m.tg.topology()
	byLane := map[ShardedID]*opsEntry{} // by current lane and id there
	for _, e := range m.live {
		l, lid, err := m.tg.resolve(e.id)
		if err != nil {
			t.Fatalf("live handle %v lost: %v", e.id, err)
		}
		lp, _ := l.sess.Path(lid)
		dark, _ := l.sess.IsDark(lid)
		be, _ := l.sess.IsBestEffort(lid)
		gp := l.global(t, g, lp)
		if unsure != nil && !unsure[l.comp] && e.known && (!gp.Equal(e.path) || dark != e.dark) {
			t.Fatalf("handle %v: the target holds %v (dark %v), the model %v (dark %v)", e.id, gp, dark, e.path, e.dark)
		}
		if gp.First() != e.req.Src || gp.Last() != e.req.Dst || !dark && crossesFailure(g, gp) {
			t.Fatalf("handle %v: route %v does not serve %v over live arcs", e.id, gp, e.req)
		}
		e.path, e.dark, e.be, e.lane, e.known = gp, dark, be, l.shard, true
		byLane[ShardedID{l.shard, lid}] = e
	}
	m.parked = slices.DeleteFunc(m.parked, func(e *opsEntry) bool { return reset || !e.dark || !slices.Contains(m.live, e) })
	lanes, _ := m.tg.lanes()
	order := make([][]*opsEntry, len(lanes))
	for i, l := range lanes {
		for _, id := range l.sess.DarkIDs() {
			e := byLane[ShardedID{l.shard, id}]
			if e == nil {
				t.Fatalf("lane %d parks id %d the model does not hold", l.shard, id)
			}
			order[i] = append(order[i], e)
			if !slices.Contains(m.parked, e) {
				m.parked = append(m.parked, e)
			}
		}
	}
	for i, l := range lanes {
		want := slices.DeleteFunc(slices.Clone(m.parked), func(e *opsEntry) bool { return e.lane != l.shard })
		if !slices.Equal(order[i], want) {
			t.Fatalf("lane %d lists its dark entries out of park order", l.shard)
		}
	}
}

// check asserts FuzzEngineOps' invariants on the synced model.
func (m *opsModel) check(afterRevive bool) {
	t, g, rd := m.t, m.tg.topology(), m.tg.reads()
	var fam dipath.Family
	var ids []ShardedID
	dark, be := 0, 0
	for _, e := range m.live {
		ids = append(ids, e.id)
		switch {
		case e.dark:
			dark++
		case e.be:
			be++
			fallthrough
		default:
			fam = append(fam, e.path)
		}
	}
	loads := m.loads(nil, nil)
	pi := slices.Max(append(loads, 0))
	switch {
	case rd.len != len(fam) || rd.dark != dark:
		t.Fatalf("Len %d, DarkLive %d; the model has %d lit, %d dark", rd.len, rd.dark, len(fam), dark)
	case !slices.Equal(rd.loads, loads) || rd.pi != pi:
		t.Fatalf("loads %v (π %d), the model's %v (π %d)", rd.loads, rd.pi, loads, pi)
	case rd.verify != nil:
		t.Fatal(rd.verify)
	case len(rd.prov.Paths) != len(fam):
		t.Fatalf("merged provisioning of %d paths for %d lit", len(rd.prov.Paths), len(fam))
	case rd.accepted != m.counts.accepted || rd.rejected != m.counts.rejected:
		t.Fatalf("admission stats %d accepted, %d rejected; the model %d, %d", rd.accepted, rd.rejected, m.counts.accepted, m.counts.rejected)
	case m.cfg.budget > 0 && be == 0 && rd.lambda > m.cfg.budget:
		t.Fatalf("λ = %d past the budget %d with no best-effort entry live", rd.lambda, m.cfg.budget)
	}
	if err := core.Verify(g, rd.prov.Paths, &core.Result{Colors: rd.prov.Wavelengths, NumColors: rd.prov.NumLambda, Pi: rd.prov.Pi}); err != nil {
		t.Fatalf("merged provisioning: %v", err)
	} else if len(fam) > 0 {
		ref, _, err := core.ColorDAGPrevalidated(g, fam)
		if err != nil {
			t.Fatal(err)
		}
		if rd.lambda < pi || rd.lambda > ref.NumColors+core.DefaultSlack+rd.overlay {
			t.Fatalf("λ = %d outside [π %d, λref %d + slack %d + overlay band %d]", rd.lambda, pi, ref.NumColors, core.DefaultSlack, rd.overlay)
		}
	}
	lanes, spans := m.tg.lanes()
	for i, l := range lanes {
		if _, lfam := l.sess.snapshot(); !cycles.HasInternalCycle(l.graph()) {
			if n, lp := l.sess.coloring.NumLambda(), load.Pi(l.graph(), lfam); n > lp+core.DefaultSlack {
				t.Fatalf("lane %d has no internal cycle but λ = %d > π %d + slack", l.shard, n, lp)
			}
		}
		if !afterRevive && (!spans[i] || m.unswept[l.shard]) || l.sess.budget > 0 && !l.precheck(m.cfg) {
			continue
		}
		for _, e := range m.parked {
			if e.lane == l.shard && !crossesFailure(g, e.path) && (l.sess.budget == 0 || fits(e.path, loads, l.sess.budget)) {
				t.Fatalf("lane %d keeps %v dark on a live route that fits", l.shard, e.id)
			}
		}
	}
	if m.tg.e == nil {
		for _, id := range m.stale {
			if _, err := m.tg.s.Path(id.ID); !errors.Is(err, ErrUnknownSession) {
				t.Fatalf("removed id %v reads %v, want ErrUnknownSession", id, err)
			}
		}
		return
	}
	checkSnapshotAgainstStrong(t, m.tg.e, append(ids, m.stale...))
	seq := lastSeqOf(m.tg.e)
	if seq <= m.seq {
		t.Fatalf("snapshot seq %d did not advance past %d", seq, m.seq)
	}
	m.seq = seq
}

// digest lists what a failed op must not change: Len, π, DarkLive and
// every live handle's lane-local route, and with colors λ and each
// wavelength (-1 marks a dark entry either way).
func (m *opsModel) digest(colors bool) []int {
	var d []int
	if s := m.tg.s; s != nil {
		n, _ := s.NumLambda()
		d = []int{s.Len(), s.Pi(), s.DarkLive(), n}
	} else {
		n, _ := m.tg.e.NumLambda()
		d = []int{m.tg.e.Len(), m.tg.e.Pi(), m.tg.e.DarkLive(), n}
	}
	if !colors {
		d = d[:3]
	}
	for _, e := range m.live {
		l, lid, err := m.tg.resolve(e.id)
		if err != nil {
			d = append(d, -2) // lost
			continue
		}
		p, _ := l.sess.Path(lid)
		w, _ := l.sess.Wavelength(lid)
		if !colors {
			w = min(w, 0)
		}
		d = append(d, -3, w, int(p.First()))
		for _, a := range p.Arcs() {
			d = append(d, int(a))
		}
	}
	return d
}
