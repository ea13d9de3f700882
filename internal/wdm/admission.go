package wdm

import (
	"errors"
	"fmt"
	"sort"

	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/load"
	"wavedag/internal/route"
)

// ErrBudgetExceeded is the sentinel wrapped by Add (and surfaced in
// ApplyBatch results) when a request is rejected because provisioning
// it would exceed the session's wavelength budget. TryAdd reports the
// same outcome as a non-error Admission{Accepted: false}, which is the
// API blocking-probability workloads should drive.
var ErrBudgetExceeded = errors.New("wdm: wavelength budget exceeded")

// Admission is the outcome of one budgeted admission decision.
type Admission struct {
	Accepted   bool
	BestEffort bool // accepted past the budget by the degrade strategy
	Retried    bool // accepted on an alternate route, not the strategy's first choice
}

// AdmissionStats counts a session's admission outcomes. Requests counts
// the Add/TryAdd offers that reached admission — offers that failed
// routing (no route) error out earlier and are not counted; reroutes
// are not offers. Accepted + Rejected = Requests except for offers that
// errored during commit (counted in Requests with neither outcome).
// BestEffort and Retried subdivide Accepted.
type AdmissionStats struct {
	Requests   int
	Accepted   int
	Rejected   int
	BestEffort int
	Retried    int
}

// AdmissionStrategy decides the fate of requests whose routed path
// failed a session's wavelength-budget check. Like the routing
// strategies it is a registry-named factory: NewState builds
// per-session state (e.g. an alternate-route router) bound to the
// topology. The built-ins are "reject" (drop over-budget requests),
// "retry-alt-route" (re-ask a min-load router for a path around the
// saturated arcs) and "degrade" (accept past the budget as best-effort
// and report those separately).
type AdmissionStrategy interface {
	// Name is the registry key; it must be non-empty and unique.
	Name() string
	// NewState builds admission state bound to g.
	NewState(g *digraph.Digraph) (AdmissionState, error)
}

// AdmissionState is per-session admission state. Admit is called with a
// context wrapping the over-budget request; it may commit an alternate
// path (budget-checked) or the original one best-effort, and returns
// the decision. Returning Admission{} (not accepted) rejects.
type AdmissionState interface {
	Admit(c *AdmissionContext) (SessionID, Admission, error)
}

// AdmissionContext is the controlled session view an AdmissionState
// works through: the rejected request and its routed path, read access
// to the live loads, and the two commit doors (budget-checked and
// best-effort). The id returned by a successful commit is the one the
// strategy must hand back from Admit.
type AdmissionContext struct {
	s    *Session
	req  route.Request
	path *dipath.Path
}

// Request returns the request under admission.
func (c *AdmissionContext) Request() route.Request { return c.req }

// Path returns the routed path that failed the budget check.
func (c *AdmissionContext) Path() *dipath.Path { return c.path }

// Budget returns the session's wavelength budget.
func (c *AdmissionContext) Budget() int { return c.s.budget }

// Loads returns the session's live load tracker. Strategies must treat
// it as read-only — the session accounts committed paths itself.
func (c *AdmissionContext) Loads() *load.Tracker { return c.s.tracker }

// Commit runs the budget check on p (which must satisfy the request)
// and, when it passes, inserts p into the session. ok reports whether
// the path was admitted; on ok=false the session is untouched.
func (c *AdmissionContext) Commit(p *dipath.Path) (id SessionID, ok bool, err error) {
	return c.s.admitCommit(c.req, p)
}

// CommitBestEffort inserts p unconditionally, flagged best-effort: it
// occupies wavelengths and load like any other path but is reported
// separately, and the session's λ ≤ budget invariant is suspended while
// any best-effort request is live.
func (c *AdmissionContext) CommitBestEffort(p *dipath.Path) (SessionID, error) {
	return c.s.commitPath(c.req, p, true)
}

// ── Registry ───────────────────────────────────────────────────────────

// Names of the built-in admission strategies.
//
//wavedag:registry RegisterAdmissionStrategy
const (
	AdmissionReject        = "reject"
	AdmissionRetryAltRoute = "retry-alt-route"
	AdmissionDegrade       = "degrade"
)

var admissionStrategies = map[string]AdmissionStrategy{}

// RegisterAdmissionStrategy adds s to the admission registry;
// registering a nil strategy, an empty name, or a duplicate name fails.
func RegisterAdmissionStrategy(s AdmissionStrategy) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("wdm: admission strategy must be non-nil with a non-empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := admissionStrategies[s.Name()]; dup {
		return fmt.Errorf("wdm: admission strategy %q already registered", s.Name())
	}
	admissionStrategies[s.Name()] = s
	return nil
}

// LookupAdmissionStrategy returns the registered admission strategy
// named name.
func LookupAdmissionStrategy(name string) (AdmissionStrategy, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := admissionStrategies[name]
	return s, ok
}

// AdmissionStrategyNames returns the registered admission strategy
// names, sorted.
func AdmissionStrategyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(admissionStrategies))
	for n := range admissionStrategies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	for _, s := range []AdmissionStrategy{
		rejectStrategy{}, retryAltRouteStrategy{}, degradeStrategy{},
	} {
		if err := RegisterAdmissionStrategy(s); err != nil {
			panic(err)
		}
	}
}

// ── Built-in admission strategies ──────────────────────────────────────

// rejectStrategy drops over-budget requests outright — the default, and
// the strategy blocking-probability experiments measure.
type rejectStrategy struct{}

func (rejectStrategy) Name() string { return AdmissionReject }

func (rejectStrategy) NewState(*digraph.Digraph) (AdmissionState, error) {
	return rejectState{}, nil
}

type rejectState struct{}

func (rejectState) Admit(*AdmissionContext) (SessionID, Admission, error) {
	return 0, Admission{}, nil
}

// retryAltRouteStrategy re-asks its own min-load router for a path that
// steers around the saturated arcs: when the strategy's first route is
// over budget but a longer detour still fits, the request is recovered
// instead of blocked. It owns a route.Router exactly like the min-load
// routing strategy does.
type retryAltRouteStrategy struct{}

func (retryAltRouteStrategy) Name() string { return AdmissionRetryAltRoute }

func (retryAltRouteStrategy) NewState(g *digraph.Digraph) (AdmissionState, error) {
	return &retryAltRouteState{r: route.NewRouter(g)}, nil
}

type retryAltRouteState struct{ r *route.Router }

func (st *retryAltRouteState) Admit(c *AdmissionContext) (SessionID, Admission, error) {
	alt, err := st.r.MinLoadPath(c.Request(), c.Loads())
	if err != nil {
		return 0, Admission{}, nil // no alternative exists: reject
	}
	if alt.Equal(c.Path()) {
		return 0, Admission{}, nil // the rejected path is already load-optimal
	}
	id, ok, err := c.Commit(alt)
	if err != nil {
		return 0, Admission{}, err
	}
	if !ok {
		return 0, Admission{}, nil
	}
	return id, Admission{Accepted: true, Retried: true}, nil
}

// degradeStrategy accepts over-budget requests as best-effort traffic:
// they are provisioned normally (wavelengths, load, conflicts) but
// counted separately, so a capacity planner can see exactly how much
// traffic rides past the budget. While best-effort requests are live
// the session's λ ≤ budget invariant is suspended.
type degradeStrategy struct{}

func (degradeStrategy) Name() string { return AdmissionDegrade }

func (degradeStrategy) NewState(*digraph.Digraph) (AdmissionState, error) {
	return degradeState{}, nil
}

type degradeState struct{}

func (degradeState) Admit(c *AdmissionContext) (SessionID, Admission, error) {
	id, err := c.CommitBestEffort(c.Path())
	if err != nil {
		return 0, Admission{}, err
	}
	return id, Admission{Accepted: true, BestEffort: true}, nil
}
