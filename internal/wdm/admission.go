package wdm

import (
	"errors"
	"fmt"

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
// strategies it is a factory: NewState builds per-session state (e.g.
// an alternate-route router) bound to the topology. The built-ins are
// the values AdmissionReject, AdmissionRetryAltRoute and
// AdmissionDegrade.
type AdmissionStrategy interface {
	// NewState builds admission state bound to g.
	NewState(g *digraph.Digraph) (AdmissionState, error)
}

// The built-in admission strategies.
var (
	// AdmissionReject drops over-budget requests; it is the default.
	AdmissionReject AdmissionStrategy = rejectStrategy{}
	// AdmissionRetryAltRoute re-asks a min-load router for a path around
	// the saturated arcs; on a session that already routes by min load
	// (or UPP) it rejects like AdmissionReject.
	AdmissionRetryAltRoute AdmissionStrategy = retryAltRouteStrategy{}
	// AdmissionDegrade accepts over-budget requests as best-effort and
	// reports them separately.
	AdmissionDegrade AdmissionStrategy = degradeStrategy{}
)

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
// strategy must hand back from Admit. The session reuses one context
// for every offer, so it is valid only until Admit returns.
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

// Commit runs the budget check on p and, when it passes, inserts p into
// the session. ok reports whether the path was admitted; on ok=false
// the session is untouched. A p that does not serve the request (other
// endpoints, or a failed arc) is an error, and the session is untouched.
func (c *AdmissionContext) Commit(p *dipath.Path) (id SessionID, ok bool, err error) {
	if err := c.s.checkServes(c.req, p); err != nil {
		return 0, false, fmt.Errorf("wdm: admission: %w", err)
	}
	return c.s.admitCommit(c.req, p)
}

// CommitBestEffort inserts p unconditionally, flagged best-effort: it
// occupies wavelengths and load like any other path but is reported
// separately, and the session's λ ≤ budget invariant is suspended while
// any best-effort request is live. Like Commit it refuses, untouched, a
// p that does not serve the request.
func (c *AdmissionContext) CommitBestEffort(p *dipath.Path) (SessionID, error) {
	if err := c.s.checkServes(c.req, p); err != nil {
		return 0, fmt.Errorf("wdm: admission: %w", err)
	}
	return c.s.commitPath(c.req, p, true)
}

// ── Built-in admission strategies ──────────────────────────────────────

// rejectStrategy drops over-budget requests outright — the default, and
// the strategy blocking-probability experiments measure.
type rejectStrategy struct{}

func (rejectStrategy) NewState(*digraph.Digraph) (AdmissionState, error) {
	return rejectState{}, nil
}

type rejectState struct{}

func (rejectState) Admit(*AdmissionContext) (SessionID, Admission, error) {
	return 0, Admission{}, nil
}

// retryAltRouteStrategy re-asks a min-load router for a path that
// steers around the saturated arcs: when the strategy's first route is
// over budget but a longer detour still fits, the request is recovered
// instead of blocked. It searches with the session's storm detour
// router. A session that routes by RouteMinLoad or RouteUPP is rejected
// without a search: its first route already is the min-load path (on a
// UPP-DAG the only one), so the search could only return the path the
// budget just refused.
type retryAltRouteStrategy struct{}

func (retryAltRouteStrategy) NewState(*digraph.Digraph) (AdmissionState, error) {
	return retryAltRouteState{}, nil
}

type retryAltRouteState struct{}

func (retryAltRouteState) Admit(c *AdmissionContext) (SessionID, Admission, error) {
	switch c.s.routingStrat {
	case RouteMinLoad, RouteUPP:
		return 0, Admission{}, nil
	}
	alt, err := c.s.detourRouter().MinLoadPath(c.Request(), c.Loads())
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
