// Command slimbench regenerates the paper's tables and figures.
//
// Usage:
//
//	slimbench -list
//	slimbench -exp fig5a [-scale small|medium|large]
//	slimbench -exp all -scale medium
//
// Each experiment prints the same rows/series the corresponding table or
// figure reports; see EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"slimstore/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment ID (e.g. fig5a, table2) or 'all'")
		scale = flag.String("scale", "small", "workload scale: small, medium, large")
		list  = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var s bench.Scale
	switch *scale {
	case "small":
		s = bench.SmallScale
	case "medium":
		s = bench.MediumScale
	case "large":
		s = bench.LargeScale
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small, medium, large)\n", *scale)
		os.Exit(2)
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		if err := e.Run(os.Stdout, s); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			run(e)
		}
		return
	}
	e, ok := bench.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; run with -list\n", *exp)
		os.Exit(2)
	}
	run(e)
}
