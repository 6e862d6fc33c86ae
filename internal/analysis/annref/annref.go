// Package annref implements the spandex-lint analyzer for the //spandex:
// directives: it reports every directive the shared reader
// (analysis.Directive) rejects — malformed, incomplete, misplaced or of
// an unknown kind — and checks the protocol annotations
// (//spandex:transition, //spandex:unreachable and //spandex:flow)
// against the vocabularies they reference.
//
// The transgraph and msgflow extractors trust these directives: an
// annotated transition becomes part of the static graph the model
// checker's coverage accounting and the independence derivation consume,
// and an unreachability declaration silences a gap in the conformance
// diff. A typo in a message or state name therefore does not fail loudly
// — it either invents a phantom state ("V+evit") that makes the graph
// vacuously consistent, or claims unreachability for a pair that never
// existed while the real pair stays untested. This analyzer closes that
// hole at lint time:
//
//   - Every message identifier (the transition's message and emits= list,
//     the unreachable message list, flow queue messages, wait awaits=/via=
//     lists, and the emit message) must be an enumerator of the MsgType
//     enum — resolved from the package under analysis or any of its
//     direct imports, so both the real protocol packages (which import
//     internal/proto) and self-contained testdata validate.
//   - Every state in an at= list (unreachable and flow queue) must appear
//     as a from= or to= state of some //spandex:transition on the same
//     receiver: the claim is about the annotated graph, so a state the
//     graph never mentions is a typo, not a new state.
//   - A flow wait whose name is a state suffix ("+rvk") must match at
//     least one annotated state with that suffix.
//
// The grammar errors are the ones spandex-graph aborts with, at the same
// position, so lint catches a bad directive where it sits.
//
// State checks only apply to receivers that carry //spandex:transition
// annotations (the LLC). Extracted units (TUs, device L1s, the MESI
// directory) derive their graphs from the AST; their wait names are free
// labels and their directives carry no at= lists, so only message names
// are validated there.
package annref

import (
	"go/types"
	"slices"
	"strings"

	"spandex/internal/analysis"
)

// Analyzer is the annref analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "annref",
	Doc:  "spandex: directives must parse, and protocol annotations must reference real message types and states",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	msgs := msgVocabulary(pass)
	dirs := pass.Directives()
	// states collects each receiver's from=/to= vocabulary across the
	// whole package (the LLC's transitions span llc.go and llc_fetch.go).
	states := map[string]map[string]bool{}
	for _, d := range dirs {
		if d.Kind == "transition" {
			if states[d.Recv] == nil {
				states[d.Recv] = map[string]bool{}
			}
			for _, s := range slices.Concat(d.Fields["from"], d.Fields["to"]) {
				states[d.Recv][s] = true
			}
		}
	}

	for _, d := range dirs {
		if d.Err != "" {
			pass.Reportf(d.Pos, "%s", d.Err)
			continue
		}
		var names []string
		if d.Kind != "flow wait" { // a wait's operand is its name
			names = d.Operand
		}
		checkMsgs(pass, msgs, d, d.Kind, names)
		for _, key := range []string{"emits", "awaits", "via"} {
			checkMsgs(pass, msgs, d, d.Kind+" "+key+"=", d.Fields[key])
		}

		vocab := states[d.Recv]
		if len(vocab) == 0 {
			continue // extracted unit: no annotated graph to resolve against
		}
		for _, s := range d.Fields["at"] {
			if s != "*" && !vocab[s] {
				pass.Reportf(d.Pos, "state %q in %s at= matches no //spandex:transition state of %s", s, d.Kind, d.Recv)
			}
		}
		if d.Kind == "flow wait" && strings.HasPrefix(d.Operand[0], "+") && !anySuffix(vocab, d.Operand[0]) {
			pass.Reportf(d.Pos, "wait suffix %q matches no //spandex:transition state of %s", d.Operand[0], d.Recv)
		}
	}
	return nil
}

// checkMsgs reports the names that are not MsgType enumerators; where
// names the directive part they appear in.
func checkMsgs(pass *analysis.Pass, msgs map[string]bool, d *analysis.Directive, where string, names []string) {
	if msgs == nil {
		return // no MsgType enum in scope; nothing to resolve against
	}
	for _, m := range names {
		if m != "*" && !msgs[m] {
			pass.Reportf(d.Pos, "unknown message type %q in //spandex:%s: not a MsgType enumerator", m, where)
		}
	}
}

// msgVocabulary finds the MsgType enum visible to the package — declared
// in the package itself or in one of its direct imports — and returns its
// enumerator names. Nil when no such enum is in scope (message checks are
// then skipped: there is nothing to resolve against).
func msgVocabulary(pass *analysis.Pass) map[string]bool {
	pkgs := append([]*types.Package{pass.Pkg}, pass.Pkg.Imports()...)
	for _, p := range pkgs {
		tn, ok := p.Scope().Lookup("MsgType").(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		consts := analysis.EnumOf(named)
		if consts == nil {
			continue
		}
		vocab := make(map[string]bool, len(consts))
		for _, c := range consts {
			vocab[c.Name] = true
		}
		return vocab
	}
	return nil
}

// anySuffix reports whether any state in vocab ends with the suffix.
func anySuffix(vocab map[string]bool, suffix string) bool {
	for s := range vocab {
		if strings.HasSuffix(s, suffix) {
			return true
		}
	}
	return false
}
