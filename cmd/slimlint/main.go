// Command slimlint runs the project-invariant static analyzers over the
// module: determinism in simclock-charged and store-encoding packages,
// error discipline at the storage boundary, and context plumbing. It is
// part of the verify gate (scripts/check.sh) — a nonzero exit means the
// tree violates an invariant the system's correctness depends on.
//
// Usage:
//
//	slimlint [packages...]
//
// Packages are directories or `dir/...` patterns relative to the working
// directory; the default is ./... (every package in the module, testdata
// excluded — fixture packages are linted by naming them explicitly).
//
// Exit codes: 0 clean, 1 findings, 2 load/usage errors.
package main

import (
	"fmt"
	"os"
	"strings"

	"slimstore/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fatal(fmt.Errorf("slimlint: takes no flags (got %s); usage: slimlint [packages...]", p))
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("slimlint: no packages matched %v", patterns))
	}
	findings := lint.Run(pkgs)
	lint.WriteHuman(os.Stdout, findings)
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
