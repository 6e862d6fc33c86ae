// Command spandex-lint runs the project's custom static analyzers over the
// tree and exits nonzero on findings. It is the multichecker for the
// internal/analysis suite:
//
//	determinism  — no wall-clock, global rand, order-sensitive map ranges
//	               or goroutines on the deterministic sim path
//	protostate   — switches over protocol/state enums must be exhaustive
//	               or end in a panicking default
//	mutafter     — no mutating a *Message after Send/Schedule
//	poolret      — no using a pooled object after Pool.Put/free* released it
//	annref       — every //spandex: directive must parse, and the
//	               transition/unreachable/flow annotations must reference
//	               real message types and states
//
// Usage:
//
//	spandex-lint [-analyzers determinism,protostate] [packages]
//	spandex-lint -list
//
// Packages default to ./... resolved from the current directory. Findings
// print as file:line:col: message (analyzer). Suppress a finding with a
// justified //spandex:<directive> comment on or above the flagged line
// (maprange, partialswitch or poolret; see the analyzer docs). One reader,
// analysis.Directive, parses these and the protocol annotations for both
// this command and spandex-graph, so annref's grammar errors are the ones
// spandex-graph aborts with.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spandex/internal/analysis"
	"spandex/internal/analysis/annref"
	"spandex/internal/analysis/determinism"
	"spandex/internal/analysis/mutafter"
	"spandex/internal/analysis/poolret"
	"spandex/internal/analysis/protostate"
)

var suite = []*analysis.Analyzer{
	determinism.Analyzer,
	protostate.Analyzer,
	mutafter.Analyzer,
	poolret.Analyzer,
	annref.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spandex-lint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spandex-lint:", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		return
	}
	diags, err := analysis.RunAnalyzers(pkgs, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spandex-lint:", err)
		os.Exit(2)
	}
	fset := pkgs[0].Fset
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Printf("%s: %s (%s)\n", pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "spandex-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var selected []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		selected = append(selected, a)
	}
	return selected, nil
}
