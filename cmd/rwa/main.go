// Command rwa analyses and colors dipath-family instances in the graphio
// text format (see internal/graphio).
//
// Usage:
//
//	rwa analyze  [file]          # load, internal cycles, UPP, conflict stats
//	rwa color    [file]          # wavelength assignment (strongest theorem)
//	rwa gen <instance> [args]    # emit a paper instance (fig1 k | fig3 | gadget k | havet)
//	rwa dot      [file]          # Graphviz export
//
// Files default to stdin.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"

	"wavedag/internal/conflict"
	"wavedag/internal/core"
	"wavedag/internal/cycles"
	"wavedag/internal/digraph"
	"wavedag/internal/dipath"
	"wavedag/internal/gen"
	"wavedag/internal/graphio"
	"wavedag/internal/load"
	"wavedag/internal/upp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = withInstance(os.Args[2:], analyze)
	case "color":
		err = withInstance(os.Args[2:], colorCmd)
	case "gen":
		err = genCmd(os.Args[2:])
	case "dot":
		err = withInstance(os.Args[2:], func(g *digraph.Digraph, fam dipath.Family) error {
			_, e := io.WriteString(os.Stdout, g.DOT("instance"))
			return e
		})
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwa:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: rwa <analyze|color|gen|dot> [args]
  analyze [file]        instance statistics (load, cycles, UPP, conflicts)
  color   [file]        wavelength assignment via the strongest theorem
  gen fig1 <k>          Figure 1 staircase (π=2, w=k)
  gen fig3              Figure 3 instance (π=2, w=3)
  gen gadget <k>        Theorem 2 gadget (conflict C_{2k+1})
  gen havet [h]         Figure 9 Havet instance, family replicated h times
  dot     [file]        Graphviz export`)
}

func withInstance(args []string, fn func(*digraph.Digraph, dipath.Family) error) error {
	in := os.Stdin
	if len(args) > 0 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	g, fam, err := graphio.Read(in)
	if err != nil {
		return err
	}
	return fn(g, fam)
}

func analyze(g *digraph.Digraph, fam dipath.Family) error {
	if err := fam.Validate(g); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "vertices\t%d\n", g.NumVertices())
	fmt.Fprintf(tw, "arcs\t%d\n", g.NumArcs())
	fmt.Fprintf(tw, "dipaths\t%d\n", len(fam))
	prof := load.Summarize(g, fam)
	fmt.Fprintf(tw, "load π\t%d\n", prof.Pi)
	fmt.Fprintf(tw, "mean load (used arcs)\t%.2f\n", prof.Mean)
	nCycles := cycles.IndependentCycleCount(g)
	fmt.Fprintf(tw, "internal cycles\t%d\n", nCycles)
	isUPP, wu, wv, err := upp.IsUPP(g)
	if err != nil {
		return err
	}
	if isUPP {
		fmt.Fprintf(tw, "UPP\tyes\n")
	} else {
		fmt.Fprintf(tw, "UPP\tno (two dipaths %d->%d)\n", wu, wv)
	}
	cg := conflict.FromFamily(g, fam)
	fmt.Fprintf(tw, "conflict edges\t%d\n", cg.NumEdges())
	if cg.N() <= 64 {
		fmt.Fprintf(tw, "conflict ω (exact)\t%d\n", cg.CliqueNumber())
		fmt.Fprintf(tw, "conflict χ (exact)\t%d\n", cg.ChromaticNumber())
	} else {
		fmt.Fprintf(tw, "conflict χ (DSATUR ub)\t%d\n", conflict.CountColors(cg.DSATURColoring()))
	}
	switch {
	case nCycles == 0:
		fmt.Fprintf(tw, "guarantee\tw = π (Theorem 1)\n")
	case nCycles == 1 && isUPP:
		fmt.Fprintf(tw, "guarantee\tw ≤ ⌈4π/3⌉ (Theorem 6)\n")
	default:
		fmt.Fprintf(tw, "guarantee\tnone (internal cycles; w/π unbounded in general)\n")
	}
	return nil
}

func colorCmd(g *digraph.Digraph, fam dipath.Family) error {
	res, method, err := core.ColorDAG(g, fam)
	if err != nil {
		return err
	}
	if err := core.Verify(g, fam, res); err != nil {
		return fmt.Errorf("internal error, invalid coloring produced: %w", err)
	}
	fmt.Printf("method %s\nπ %d\nwavelengths %d\n", method, res.Pi, res.NumColors)
	for i, c := range res.Colors {
		fmt.Printf("assign %d %d\n", i, c)
	}
	return nil
}

func genCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("gen: missing instance name")
	}
	intArg := func(idx, dflt int) (int, error) {
		if len(args) <= idx {
			return dflt, nil
		}
		return strconv.Atoi(args[idx])
	}
	var g *digraph.Digraph
	var fam dipath.Family
	var err error
	switch args[0] {
	case "fig1":
		k, e := intArg(1, 4)
		if e != nil {
			return e
		}
		g, fam, err = gen.Fig1Staircase(k)
	case "fig3":
		g, fam = gen.Fig3()
	case "gadget":
		k, e := intArg(1, 3)
		if e != nil {
			return e
		}
		g, fam, err = gen.InternalCycleGadget(k)
	case "havet":
		h, e := intArg(1, 1)
		if e != nil {
			return e
		}
		g, fam = gen.Havet()
		fam = fam.Replicate(h)
	default:
		return fmt.Errorf("gen: unknown instance %q", args[0])
	}
	if err != nil {
		return err
	}
	return graphio.Write(os.Stdout, g, fam)
}
