// Command benchsuite regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	benchsuite -list
//	benchsuite [-scale F] [-workers N] -exp <id>|all
//
// Experiment IDs follow DESIGN.md: table2, fig2, fig4, fig7, fig8, fig9,
// fig10, fig11, fig12, fig13, sec86, fig14, appB, ablation. Reports are
// printed as aligned text tables with the paper's published observations
// attached as notes for comparison; EXPERIMENTS.md records a full run.
// Performance numbers come from benchmark/ (see BENCHMARK.json), not from
// these reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id (see -list) or 'all'")
	scale := fs.Float64("scale", 1.0, "dataset scale factor (1 = DESIGN.md default sizes)")
	workers := fs.Int("workers", 4, "dataflow workers where the experiment does not vary them")
	timeout := fs.Duration("timeout", 0, "abort the whole suite after this duration (0 = no limit), exit code 4")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Watchdog: experiments run many pipelines back to back with no single
	// context to cancel, so a wall-clock deadline simply ends the process.
	if *timeout > 0 {
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(stderr, "benchsuite: timeout after %v\n", *timeout)
			os.Exit(4)
		})
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:", strings.Join(experiments.IDs(), ", "), "(or: all)")
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "usage: benchsuite -exp <id>|all [-scale F] [-workers N]")
		fs.PrintDefaults()
		return 2
	}

	start := time.Now()
	if err := experiments.Run(*exp, experiments.Options{Scale: *scale, Workers: *workers}, stdout); err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	fmt.Fprintf(stdout, "total: %v (scale %g, %d workers)\n", time.Since(start).Round(time.Millisecond), *scale, *workers)
	return 0
}
