// Command repro regenerates every experiment of the reproduction
// (E1–E13, listed in main below; the paper's abstract is in PAPER.md),
// printing one table per paper figure/theorem with the paper-predicted
// value next to the measured one. It exits non-zero when a measured
// value misses its prediction.
//
// Usage:
//
//	repro            # run everything
//	repro -run e8    # run one experiment (e1..e13)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"wavedag/internal/check"
	"wavedag/internal/conflict"
	"wavedag/internal/core"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/groom"
	"wavedag/internal/load"
	"wavedag/internal/upp"
)

func main() {
	run := flag.String("run", "all", "experiment to run (e1..e13 or all)")
	flag.Parse()
	experiments := []struct {
		id   string
		name string
		fn   func(*tabwriter.Writer) error
	}{
		{"e1", "Figure 1 — pathological staircase: π = 2, w = k", e1},
		{"e2", "Figure 3 — one internal cycle, C5 conflict graph: π = 2, w = 3", e2},
		{"e3", "Theorem 1 — w = π on random internal-cycle-free DAGs", e3},
		{"e4", "Theorem 2 / Figure 5 — gadget: π = 2, w = 3, conflict C_{2k+1}", e4},
		{"e5", "Property 3 — π = ω(conflict graph) on random UPP-DAGs", e5},
		{"e6", "Corollary 5 — no K_{2,3} in UPP conflict graphs", e6},
		{"e7", "Theorem 6 — w ≤ ⌈4π/3⌉ on one-cycle UPP-DAGs", e7},
		{"e8", "Theorem 7 / Figure 9 — Havet replicas reach ⌈4π/3⌉", e8},
		{"e9", "§4 — C5 gadget replicas: w = ⌈5h/2⌉, ratio 5/4", e9},
		{"e10", "§4 remark — C independent internal cycles", e10},
		{"e11", "§1 — rooted trees: w = π", e11},
		{"e12", "Methodology — coloring algorithm shoot-out", e12},
		{"e13", "Concluding remarks — max requests under a wavelength budget", e13},
	}
	any := false
	for _, e := range experiments {
		if *run != "all" && !strings.EqualFold(*run, e.id) {
			continue
		}
		any = true
		fmt.Printf("== %s: %s\n", strings.ToUpper(e.id), e.name)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		if err := e.fn(tw); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		tw.Flush()
		fmt.Println()
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

func e1(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "k\tπ (paper: 2)\tw measured\tw paper\tconflict graph")
	for _, k := range []int{2, 3, 4, 5, 6, 8, 10, 12} {
		g, fam, err := gen.Fig1Staircase(k)
		if err != nil {
			return err
		}
		pi := load.Pi(g, fam)
		cg := conflict.FromFamily(g, fam)
		w := cg.ChromaticNumber()
		shape := "K_k"
		if !cg.IsComplete() {
			shape = "NOT complete (!)"
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%s\n", k, pi, w, k, shape)
		if pi != 2 || w != k {
			return fmt.Errorf("E1 mismatch at k=%d: π=%d w=%d", k, pi, w)
		}
	}
	return nil
}

func e2(tw *tabwriter.Writer) error {
	g, fam := gen.Fig3()
	pi := load.Pi(g, fam)
	cg := conflict.FromFamily(g, fam)
	w := cg.ChromaticNumber()
	shape := "C5"
	if !cg.IsCycle() || cg.N() != 5 {
		shape = "NOT C5 (!)"
	}
	fmt.Fprintln(tw, "quantity\tmeasured\tpaper")
	fmt.Fprintf(tw, "π\t%d\t2\n", pi)
	fmt.Fprintf(tw, "w\t%d\t3\n", w)
	fmt.Fprintf(tw, "conflict graph\t%s\tC5\n", shape)
	fmt.Fprintf(tw, "internal cycles\t%d\t1\n", cycles.IndependentCycleCount(g))
	if pi != 2 || w != 3 {
		return fmt.Errorf("E2 mismatch")
	}
	return nil
}

func e3(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "internal\tpaths\ttrials\tw=π always\tmax π\tavg time/instance")
	for _, cfg := range []struct{ nInt, paths int }{
		{8, 15}, {15, 40}, {30, 100}, {60, 250}, {120, 600},
	} {
		trials := 20
		maxPi := 0
		start := time.Now()
		for s := 0; s < trials; s++ {
			g, err := gen.RandomNoInternalCycleDAG(cfg.nInt, 3, 3, 0.2, int64(s)*31+int64(cfg.nInt))
			if err != nil {
				return err
			}
			fam := gen.RandomWalkFamily(g, cfg.paths, 8, int64(s)+77)
			res, err := core.ColorNoInternalCycle(g, fam)
			if err != nil {
				return err
			}
			if err := check.WavelengthsWithinLoad(g, fam, res.Colors); err != nil {
				return fmt.Errorf("E3: %w", err)
			}
			if res.Pi > maxPi {
				maxPi = res.Pi
			}
		}
		avg := time.Since(start) / time.Duration(trials)
		fmt.Fprintf(tw, "%d\t%d\t%d\tyes\t%d\t%v\n", cfg.nInt, cfg.paths, trials, maxPi, avg.Round(time.Microsecond))
	}
	return nil
}

func e4(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "k\t|P| (2k+1)\tπ (paper: 2)\tw (paper: 3)\tconflict cycle len")
	for _, k := range []int{2, 3, 4, 6, 8, 12} {
		g, fam, err := gen.InternalCycleGadget(k)
		if err != nil {
			return err
		}
		pi := load.Pi(g, fam)
		cg := conflict.FromFamily(g, fam)
		w := cg.ChromaticNumber()
		cyc := "-"
		if cg.IsCycle() {
			cyc = fmt.Sprint(cg.N())
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%s\n", k, len(fam), pi, w, cyc)
		if pi != 2 || w != 3 || !cg.IsCycle() {
			return fmt.Errorf("E4 mismatch at k=%d", k)
		}
	}
	return nil
}

func e5(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "n\tarcs tried\ttrials\tπ = ω always\tmax π")
	for _, cfg := range []struct{ n, attempts int }{{10, 30}, {15, 60}, {20, 100}, {30, 200}} {
		trials := 15
		maxPi := 0
		for s := 0; s < trials; s++ {
			g := gen.RandomUPPDAG(cfg.n, cfg.attempts, int64(s)*13+int64(cfg.n))
			fam, err := gen.AllSourceSinkFamily(g)
			if err != nil {
				return err
			}
			fam = append(fam, gen.RandomWalkFamily(g, 20, 6, int64(s)+5)...)
			pi := load.Pi(g, fam)
			om := conflict.FromFamily(g, fam).CliqueNumber()
			if len(fam) > 0 && pi != om {
				return fmt.Errorf("E5: π=%d ω=%d at n=%d seed=%d", pi, om, cfg.n, s)
			}
			if pi > maxPi {
				maxPi = pi
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\tyes\t%d\n", cfg.n, cfg.attempts, trials, maxPi)
	}
	return nil
}

func e6(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "n\ttrials\tK_{2,3}-free always")
	for _, n := range []int{10, 15, 20, 30} {
		trials := 15
		for s := 0; s < trials; s++ {
			g := gen.RandomUPPDAG(n, n*5, int64(s)*17+int64(n))
			fam, err := gen.AllSourceSinkFamily(g)
			if err != nil {
				return err
			}
			cg := conflict.FromFamily(g, fam)
			if _, _, found := cg.FindK23(); found {
				return fmt.Errorf("E6: K_{2,3} found at n=%d seed=%d", n, s)
			}
		}
		fmt.Fprintf(tw, "%d\t%d\tyes\n", n, trials)
	}
	return nil
}

func e7(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "instance\t|P|\tπ\tw (theorem 6)\t⌈4π/3⌉\twithin bound")
	type inst struct {
		name string
		g    func() (interface{}, dipath.Family)
	}
	gh, fh := gen.Havet()
	workloads := []struct {
		name string
		fam  dipath.Family
	}{
		{"havet base", fh},
		{"havet x3", fh.Replicate(3)},
		{"havet mixed", append(fh.Clone(), fh[0], fh[2], fh[5])},
	}
	for _, wl := range workloads {
		res, err := core.ColorOneInternalCycleUPP(gh, wl.fam)
		if err != nil {
			return err
		}
		bound := (4*res.Pi + 2) / 3
		if err := check.WavelengthsWithinBound(gh, wl.fam, res.Colors, 4, 3); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\tyes\n", wl.name, len(wl.fam), res.Pi, res.NumColors, bound)
	}
	for k := 2; k <= 5; k++ {
		g, _, err := gen.InternalCycleGadget(k)
		if err != nil {
			return err
		}
		fam, err := gen.AllSourceSinkFamily(g)
		if err != nil {
			return err
		}
		fam = fam.Replicate(2)
		res, err := core.ColorOneInternalCycleUPP(g, fam)
		if err != nil {
			return err
		}
		bound := (4*res.Pi + 2) / 3
		if err := check.WavelengthsWithinBound(g, fam, res.Colors, 4, 3); err != nil {
			return err
		}
		fmt.Fprintf(tw, "gadget k=%d all-pairs x2\t%d\t%d\t%d\t%d\tyes\n", k, len(fam), res.Pi, res.NumColors, bound)
	}
	return nil
}

func e8(tw *tabwriter.Writer) error {
	g, fam := gen.Havet()
	fmt.Fprintln(tw, "h\tπ = 2h\tw measured\t⌈8h/3⌉ (paper)\tindependence LB\tratio w/π")
	for _, h := range []int{1, 2, 3, 4, 5, 6, 8, 10, 12} {
		rep := fam.Replicate(h)
		res, err := core.ColorOneInternalCycleUPP(g, rep)
		if err != nil {
			return err
		}
		lb := check.LowerBoundByIndependence(g, rep)
		want := (8*h + 2) / 3
		if res.NumColors != want || lb != want {
			return fmt.Errorf("E8: h=%d w=%d lb=%d want=%d", h, res.NumColors, lb, want)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.3f\n", h, res.Pi, res.NumColors, want, lb, float64(res.NumColors)/float64(res.Pi))
	}
	return nil
}

func e9(tw *tabwriter.Writer) error {
	g, fam, err := gen.InternalCycleGadget(2)
	if err != nil {
		return err
	}
	fmt.Fprintln(tw, "h\tπ = 2h\tχ exact\t⌈5h/2⌉ (paper)\tratio χ/π")
	for _, h := range []int{1, 2, 3, 4} {
		rep := fam.Replicate(h)
		pi := load.Pi(g, rep)
		cg := conflict.FromFamily(g, rep)
		chi := cg.ChromaticNumber()
		want := (5*h + 1) / 2
		if chi != want || pi != 2*h {
			return fmt.Errorf("E9: h=%d χ=%d want=%d", h, chi, want)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.3f\n", h, pi, chi, want, float64(chi)/float64(pi))
	}
	return nil
}

func e10(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "C (cycles)\t|P|\tπ\tw (DSATUR)\tw/π\t⌈(4/3)^C·π⌉ bound")
	gh, fh := gen.Havet()
	for c := 1; c <= 4; c++ {
		parts := make([]gen.Instance, c)
		for i := range parts {
			parts[i] = gen.Instance{G: gh, F: fh}
		}
		g, fam := gen.DisjointUnion(parts...)
		if got := cycles.IndependentCycleCount(g); got != c {
			return fmt.Errorf("E10: expected %d cycles, got %d", c, got)
		}
		pi := load.Pi(g, fam)
		cg := conflict.FromFamily(g, fam)
		w := cg.ChromaticNumber()
		bound := pi
		num, den := 1, 1
		for i := 0; i < c; i++ {
			num *= 4
			den *= 3
		}
		bound = (pi*num + den - 1) / den
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.3f\t%d\n", c, len(fam), pi, w, float64(w)/float64(pi), bound)
	}
	fmt.Fprintln(tw, "# disjoint unions do not compound the ratio; the paper conjectures")
	fmt.Fprintln(tw, "# unbounded w/π for many-cycle UPP-DAGs — still open, not contradicted here.")
	return nil
}

func e11(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "n\tworkload\ttrials\tw = π always\tmax π")
	for _, n := range []int{10, 30, 80, 200} {
		trials := 12
		maxPi := 0
		for s := 0; s < trials; s++ {
			g := gen.RandomArborescence(n, int64(s)*7+int64(n))
			r, err := upp.NewRouter(g)
			if err != nil {
				return err
			}
			fam := r.AllPairsFamily()
			if len(fam) > 600 {
				fam = fam[:600]
			}
			res, err := core.ColorNoInternalCycle(g, fam)
			if err != nil {
				return err
			}
			if err := check.WavelengthsWithinLoad(g, fam, res.Colors); err != nil {
				return fmt.Errorf("E11: %w", err)
			}
			if res.Pi > maxPi {
				maxPi = res.Pi
			}
		}
		fmt.Fprintf(tw, "%d\tall-pairs\t%d\tyes\t%d\n", n, trials, maxPi)
	}
	return nil
}

func e12(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "instance\tπ\ttheorem1\tgreedy\tdsatur\texact χ\tt(theorem1)\tt(exact)")
	for _, cfg := range []struct {
		nInt, paths int
		seed        int64
	}{
		{10, 20, 1}, {20, 50, 2}, {40, 120, 3},
	} {
		g, err := gen.RandomNoInternalCycleDAG(cfg.nInt, 3, 3, 0.25, cfg.seed)
		if err != nil {
			return err
		}
		fam := gen.RandomWalkFamily(g, cfg.paths, 7, cfg.seed+9)
		pi := load.Pi(g, fam)
		t0 := time.Now()
		res, err := core.ColorNoInternalCycle(g, fam)
		if err != nil {
			return err
		}
		tTheo := time.Since(t0)
		cg := conflict.FromFamily(g, fam)
		greedy := conflict.CountColors(cg.GreedyColoring(nil))
		dsat := conflict.CountColors(cg.DSATURColoring())
		t0 = time.Now()
		chi := cg.ChromaticNumber()
		tExact := time.Since(t0)
		fmt.Fprintf(tw, "n=%d |P|=%d\t%d\t%d\t%d\t%d\t%d\t%v\t%v\n",
			cfg.nInt, len(fam), pi, res.NumColors, greedy, dsat, chi,
			tTheo.Round(time.Microsecond), tExact.Round(time.Microsecond))
		if res.NumColors != chi && pi > 0 {
			return fmt.Errorf("E12: theorem1 %d != χ %d", res.NumColors, chi)
		}
	}
	return nil
}

// e13 runs the concluding-remarks problem: select the maximum number of
// requests satisfiable with a given wavelength budget. On internal-cycle-
// free DAGs Theorem 1 reduces the check to "load ≤ budget", so exact
// selection is a capacity problem; on path graphs the greedy is optimal.
func e13(tw *tabwriter.Writer) error {
	fmt.Fprintln(tw, "instance\t|P|\tbudget w\tgreedy\texact\tpath-optimal")
	// Path graph: intervals, greedy provably optimal.
	pg := digraph.New(12)
	for i := 0; i < 11; i++ {
		pg.MustAddArc(digraph.Vertex(i), digraph.Vertex(i+1))
	}
	pfam, err := gen.SubpathFamily(pg, 18, 71)
	if err != nil {
		return err
	}
	for _, w := range []int{1, 2, 4} {
		onPath, err := groom.MaxOnPath(pg, pfam, w)
		if err != nil {
			return err
		}
		greedy := groom.Greedy(pg, pfam, w)
		exact, complete := groom.Exact(pg, pfam, w, 8_000_000)
		if complete && len(onPath) != len(exact) {
			return fmt.Errorf("E13: path-greedy %d != exact %d at w=%d", len(onPath), len(exact), w)
		}
		mark := fmt.Sprint(len(exact))
		if !complete {
			mark += "*"
		}
		fmt.Fprintf(tw, "path n=12\t%d\t%d\t%d\t%s\t%d\n", len(pfam), w, len(greedy), mark, len(onPath))
	}
	// General internal-cycle-free DAG.
	g, err := gen.RandomNoInternalCycleDAG(15, 3, 3, 0.25, 72)
	if err != nil {
		return err
	}
	fam := gen.RandomWalkFamily(g, 24, 6, 73)
	for _, w := range []int{1, 2, 4} {
		greedy := groom.Greedy(g, fam, w)
		exact, complete := groom.Exact(g, fam, w, 2_000_000)
		mark := fmt.Sprint(len(exact))
		if !complete {
			mark += "*"
		}
		if ok, err := groom.Feasible(g, fam, exact, w); err != nil || !ok {
			return fmt.Errorf("E13: exact selection infeasible at w=%d", w)
		}
		fmt.Fprintf(tw, "dag n=21\t%d\t%d\t%d\t%s\t-\n", len(fam), w, len(greedy), mark)
	}
	return nil
}
