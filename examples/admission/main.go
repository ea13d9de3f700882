// Admission control: a budgeted session rejecting an over-capacity
// request, and the retry-alt-route strategy recovering it through a
// detour. The topology is a diamond — two arc-disjoint routes from the
// source to the sink — with a single wavelength per fiber, so the
// second request over the shortest route must either block or take the
// other branch.
//
//	go run ./examples/admission
package main

import (
	"errors"
	"fmt"
	"log"

	"wavedag"
)

func main() {
	// s -> {a, b} -> t: no internal cycle (the one undirected cycle
	// passes through the source and the sink), so admission runs the
	// O(path) Theorem-1 precheck: a request fits the budget exactly when
	// every arc of its route keeps load ≤ w.
	g := wavedag.NewGraph(4)
	const s, a, b, t = 0, 1, 2, 3
	g.MustAddArc(s, a)
	g.MustAddArc(a, t)
	g.MustAddArc(s, b)
	g.MustAddArc(b, t)

	net := &wavedag.Network{Topology: g}

	// A budget of one wavelength and the default "reject" strategy.
	sess, err := net.NewSession(wavedag.WithWavelengthBudget(1))
	if err != nil {
		log.Fatal(err)
	}
	req := wavedag.Request{Src: s, Dst: t}
	if _, err := sess.Add(req); err != nil {
		log.Fatal(err)
	}
	fmt.Println("request 1: accepted (shortest route s->a->t, λ0)")

	// The shortest route is now saturated: the same request again is
	// over budget and the reject strategy drops it.
	_, adm, err := sess.TryAdd(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request 2 (reject strategy): accepted=%v\n", adm.Accepted)
	if _, err := sess.Add(req); errors.Is(err, wavedag.ErrBudgetExceeded) {
		fmt.Println("  Add reports:", err)
	}

	// The same offered load under retry-alt-route: the strategy re-asks
	// a min-load router and recovers the request through s->b->t.
	retry, err := net.NewSession(
		wavedag.WithWavelengthBudget(1),
		wavedag.WithAdmissionStrategy(wavedag.AdmissionRetryAltRoute),
	)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := retry.Add(req); err != nil {
		log.Fatal(err)
	}
	id, adm, err := retry.TryAdd(req)
	if err != nil {
		log.Fatal(err)
	}
	p, err := retry.Path(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request 2 (retry-alt-route): accepted=%v retried=%v via %v\n",
		adm.Accepted, adm.Retried, p)

	st := retry.AdmissionStats()
	lambda, err := retry.NumLambda()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stats: %d offered, %d accepted (%d recovered on a detour), λ=%d ≤ budget %d\n",
		st.Requests, st.Accepted, st.Retried, lambda, retry.Budget())
}
