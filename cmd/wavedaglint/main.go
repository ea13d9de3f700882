// Command wavedaglint runs the repository's contract analyzers
// (lockfree, publish, poolpair, errwrap — see internal/lint)
// over the packages matching the given patterns (default ./...).
// Diagnostics print as file:line:col: [contract] message; the exit
// status is 1 when findings exist, 2 when loading fails, 0 when clean.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"wavedag/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "directory to run `go list` from")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: wavedaglint [-C dir] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	c, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(c, lint.Analyzers())
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && len(rel) < len(d.Pos.Filename) {
				d.Pos.Filename = rel
			}
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wavedaglint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
