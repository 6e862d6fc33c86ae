// Command spandex-graph builds every static graph artifact from one load
// of the protocol packages (msgflow.Packages):
//
//   - docs/transitions/: each controller's transition graph, JSON + DOT
//     (internal/analysis/transgraph);
//   - docs/msgflow/: the whole-system message-flow graph, verified for
//     completeness, deadlock-freedom and stall-safety
//     (internal/analysis/msgflow);
//   - docs/indep/ and internal/mcheck/indep_tables.go: the independence
//     facts mcheck's partial-order reduction relies on
//     (internal/analysis/indep).
//
// Usage, from the repository root:
//
//	spandex-graph                      # regenerate every artifact, remove orphans
//	spandex-graph -check               # write nothing; fail on any finding
//	spandex-graph -diff cov.json[,...] # cross-check observed LLC coverage
//	spandex-graph -v                   # also print flow edges and fact evidence
//
// Both modes exit nonzero on a flow violation. -check also fails on a
// stale or missing artifact, on an orphan (a .json or .dot file in one of
// the three docs directories that no build produces: a unit vanished from
// extraction, or a leftover), and on a msgflow.Mutations entry that
// produces no violation.
//
// -diff reads coverage files (the -coverage-out files of spandex-bench,
// spandex-mcheck and spandex-fuzz) and the checked-in LLC graph, loading
// no package. An observed (state, message) pair missing from the graph,
// or declared //spandex:unreachable, fails; static pairs never observed
// are reported as "proven unreachable" or "untested".
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spandex/internal/analysis"
	"spandex/internal/analysis/indep"
	"spandex/internal/analysis/msgflow"
	"spandex/internal/analysis/transgraph"
	"spandex/internal/core"
	"spandex/internal/detsort"
)

// outDirs are the artifact directories spandex-graph owns: every .json or
// .dot file in them must be one of its outputs.
var outDirs = []string{"docs/transitions", "docs/msgflow", "docs/indep"}

// tablesFile is the generated Go table file internal/mcheck compiles.
const tablesFile = "internal/mcheck/indep_tables.go"

// diffGraph is the graph of the one unit the dynamic coverage recorder
// observes (the Spandex LLC).
const diffGraph = "docs/transitions/core-llc.json"

func main() {
	check := flag.Bool("check", false, "write nothing; fail on a stale, missing or orphaned artifact, a flow violation, or an undetected mutation")
	diff := flag.String("diff", "", "comma-separated coverage files to cross-check against "+diffGraph)
	verbose := flag.Bool("v", false, "print the flow edge list and the independence-fact evidence")
	flag.Parse()

	die := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "spandex-graph: "+format+"\n", args...)
		os.Exit(1)
	}
	if flag.NArg() > 0 {
		die("unexpected arguments %v", flag.Args())
	}

	if *diff != "" {
		paths := strings.Split(*diff, ",")
		for i := range paths {
			paths[i] = strings.TrimSpace(paths[i])
		}
		if err := runDiff(os.Stdout, diffGraph, paths); err != nil {
			die("%v", err)
		}
		return
	}

	pkgs, err := analysis.Load(".", msgflow.Packages...)
	if err != nil {
		die("%v", err)
	}
	a, err := build(pkgs)
	if err != nil {
		die("%v", err)
	}
	a.report(os.Stdout, *verbose)

	if *check {
		problems, err := checkTree(".", a, pkgs, os.Stdout)
		if err != nil {
			die("%v", err)
		}
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Printf("%s and %s are fresh\n", strings.Join(outDirs, ", "), tablesFile)
		return
	}

	removed, err := a.write(".")
	if err != nil {
		die("%v", err)
	}
	for _, path := range removed {
		fmt.Printf("removed orphan %s\n", path)
	}
	if len(a.flow.Violations) > 0 {
		os.Exit(1)
	}
}

// artifacts is everything one unmutated build produces.
type artifacts struct {
	// files maps each output path, relative to the repository root, to
	// its contents.
	files map[string][]byte
	units []*transgraph.UnitGraph
	flow  *msgflow.Result
	facts *indep.Facts
}

// build extracts the unit graphs, verifies the flow graph and derives the
// independence facts, rendering every output.
func build(pkgs []*analysis.Package) (*artifacts, error) {
	g, err := msgflow.Build(pkgs)
	if err != nil {
		return nil, err
	}
	a := &artifacts{files: map[string][]byte{}}
	for _, name := range detsort.Keys(g.Units) {
		// The builtin mem unit is msgflow's model of DRAM, not an
		// extracted controller: it has no transition artifact.
		if g.Units[name].Source == "builtin" {
			continue
		}
		ug := g.Units[name].Graph()
		a.units = append(a.units, ug)
		a.files["docs/transitions/"+name+".json"] = ug.JSON()
		a.files["docs/transitions/"+name+".dot"] = ug.DOT()
	}

	a.flow = msgflow.Verify(g)
	flowJSON, err := msgflow.JSON(a.flow)
	if err != nil {
		return nil, err
	}
	a.files["docs/msgflow/flow.json"] = flowJSON
	a.files["docs/msgflow/flow.dot"] = msgflow.DOT(a.flow)

	if a.facts, err = indep.Derive(g); err != nil {
		return nil, err
	}
	factsJSON, err := indep.JSON(a.facts)
	if err != nil {
		return nil, err
	}
	tables, err := indep.GoSource(a.facts)
	if err != nil {
		return nil, err
	}
	a.files["docs/indep/indep.json"] = factsJSON
	a.files["docs/indep/indep.dot"] = indep.DOT(a.facts)
	a.files[tablesFile] = tables
	return a, nil
}

// report prints one line per unit graph, the flow violations and
// summary, and the fact summary; verbose adds the flow edges and the
// evidence behind each fact.
func (a *artifacts) report(w io.Writer, verbose bool) {
	for _, ug := range a.units {
		fmt.Fprintf(w, "%-16s %s: %d states, %d messages, %d transitions\n",
			ug.Name(), ug.Source, len(ug.States), len(ug.Messages), len(ug.Transitions))
	}
	r := a.flow
	if verbose {
		for _, e := range r.Graph.Edges {
			fmt.Fprintf(w, "  %-15s --%-11s--> %-15s [%s via %s]\n", e.Src, e.Msg, e.Dst, e.Class, e.Via)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "%s: %s\n", v.Check, v.Text)
	}
	fmt.Fprintf(w, "msgflow: %d units, %d edges, %d blockable; %d state pairs checked, %d proven-unreachable exceptions, %d violations\n",
		len(r.Graph.Units), len(r.Graph.Edges), r.BlockableEdges, r.CheckedPairs, r.ProvenExceptions, len(r.Violations))
	f := a.facts
	if verbose {
		for _, m := range f.Guard {
			fmt.Fprintf(w, "guard %-10s %v\n", m, f.GuardEvidence[m])
		}
		for _, m := range f.SettledLocal {
			fmt.Fprintf(w, "settled-local %-10s %s\n", m, f.SettledEvidence[m])
		}
		fmt.Fprintf(w, "mem clients: %v\n", f.MemClients)
	}
	fmt.Fprintf(w, "indep: %d guard types, %d settled-local types, memSoleClient=%v\n",
		len(f.Guard), len(f.SettledLocal), f.MemSoleClient)
}

// orphans lists, in sorted order, the .json and .dot files under root's
// artifact directories that no output names.
func (a *artifacts) orphans(root string) ([]string, error) {
	var out []string
	for _, dir := range outDirs {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return nil, err
		}
		for _, ent := range entries {
			path := filepath.Join(dir, ent.Name())
			ext := filepath.Ext(path)
			if !ent.IsDir() && (ext == ".json" || ext == ".dot") && a.files[path] == nil {
				out = append(out, path)
			}
		}
	}
	return out, nil
}

// write writes every output under root and removes the orphans, which it
// returns.
func (a *artifacts) write(root string) ([]string, error) {
	for _, p := range detsort.Keys(a.files) {
		path := filepath.Join(root, p)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, a.files[p], 0o644); err != nil {
			return nil, err
		}
	}
	orphans, err := a.orphans(root)
	if err != nil {
		return nil, err
	}
	for _, p := range orphans {
		if err := os.Remove(filepath.Join(root, p)); err != nil {
			return nil, err
		}
	}
	return orphans, nil
}

// checkTree lists every reason the tree under root fails -check: stale or
// missing outputs, orphans, flow violations, and mutations the flow checks
// do not detect. Each mutation runs on its own build from pkgs, so it
// never touches a's graphs; detections are reported to w.
func checkTree(root string, a *artifacts, pkgs []*analysis.Package, w io.Writer) ([]string, error) {
	var problems []string
	for _, p := range detsort.Keys(a.files) {
		have, err := os.ReadFile(filepath.Join(root, p))
		if err != nil || !bytes.Equal(have, a.files[p]) {
			problems = append(problems, fmt.Sprintf("stale: %s (re-run spandex-graph)", p))
		}
	}
	orphans, err := a.orphans(root)
	if err != nil {
		return nil, err
	}
	for _, p := range orphans {
		problems = append(problems, fmt.Sprintf("orphan: %s (no build produces it — extraction regression or leftover; re-run spandex-graph)", p))
	}
	if n := len(a.flow.Violations); n > 0 {
		problems = append(problems, fmt.Sprintf("msgflow: %d violation(s)", n))
	}

	for _, name := range detsort.Keys(msgflow.Mutations) {
		g, err := msgflow.Build(pkgs)
		if err != nil {
			return nil, err
		}
		if err := msgflow.Mutations[name](g); err != nil {
			problems = append(problems, fmt.Sprintf("mutation %s: %v", name, err))
			continue
		}
		r := msgflow.Verify(g)
		if len(r.Violations) == 0 {
			problems = append(problems, fmt.Sprintf("MISS: mutation %s produced no violation — the checker cannot see this bug class", name))
			continue
		}
		fmt.Fprintf(w, "detected: mutation %s surfaces as %d violation(s)\n", name, len(r.Violations))
	}
	return problems, nil
}

// runDiff cross-checks coverage files against the static LLC graph.
func runDiff(w io.Writer, graphPath string, covPaths []string) error {
	data, err := os.ReadFile(graphPath)
	if err != nil {
		return err
	}
	g := &transgraph.UnitGraph{}
	if err := json.Unmarshal(data, g); err != nil {
		return fmt.Errorf("%s: %v", graphPath, err)
	}
	observed, err := core.ReadCoverage(covPaths...)
	if err != nil {
		return err
	}

	res := transgraph.DiffCoverage(g, observed)
	fmt.Fprintf(w, "cross-check %s: %d observed pairs vs %d static pairs\n", g.Name(), res.Observed, res.Static)
	for _, pair := range detsort.Keys(res.Proven) {
		fmt.Fprintf(w, "  proven unreachable: %-18s — %s\n", pair, res.Proven[pair])
	}
	for _, gap := range res.Gaps {
		fmt.Fprintf(w, "  untested (static, never observed): %s\n", gap)
	}
	if len(res.Unknown) > 0 {
		for _, u := range res.Unknown {
			fmt.Fprintf(w, "  UNKNOWN (observed, not in static graph): %s\n", u)
		}
		return fmt.Errorf("%d observed transitions missing from the static graph", len(res.Unknown))
	}
	if len(res.Contradicted) > 0 {
		for _, c := range res.Contradicted {
			fmt.Fprintf(w, "  CONTRADICTED (observed but declared unreachable): %s\n", c)
		}
		return fmt.Errorf("%d observed transitions contradict //spandex:unreachable declarations", len(res.Contradicted))
	}
	fmt.Fprintf(w, "ok: every observed transition is in the static graph (%d proven unreachable, %d untested)\n",
		len(res.Proven), len(res.Gaps))
	return nil
}
