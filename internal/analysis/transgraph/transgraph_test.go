package transgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"spandex/internal/analysis"
)

// loadGraphs extracts the transition graphs of one real protocol package,
// keyed by unit name. These tests run against the actual source tree: the
// extractor's contract is with the codebase, not a synthetic fixture.
func loadGraphs(t *testing.T, pattern string) map[string]*UnitGraph {
	t.Helper()
	pkgs, err := analysis.Load("../../..", pattern)
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", pattern, len(pkgs))
	}
	graphs, err := Extract(pkgs[0])
	if err != nil {
		t.Fatalf("extract %s: %v", pattern, err)
	}
	out := make(map[string]*UnitGraph)
	for _, g := range graphs {
		out[g.Unit] = g
	}
	return out
}

// findTransition returns the transitions for msg, failing if none exist.
func findTransitions(t *testing.T, g *UnitGraph, msg string) []Transition {
	t.Helper()
	var out []Transition
	for _, tr := range g.Transitions {
		if tr.Msg == msg {
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no transition for %s", g.Name(), msg)
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestExtractCoreLLC checks the annotated LLC graph: annotations are
// authoritative, the canonical state vocabulary appears, and the headline
// ReqS transitions match the directives in llc.go.
func TestExtractCoreLLC(t *testing.T) {
	graphs := loadGraphs(t, "./internal/core")
	g, ok := graphs["LLC"]
	if !ok {
		t.Fatalf("no LLC unit extracted; got %v", unitNames(graphs))
	}
	if g.Source != "annotations" {
		t.Fatalf("LLC source = %q, want annotations (directives must win over extraction)", g.Source)
	}
	if g.Name() != "core-llc" {
		t.Fatalf("LLC graph name = %q, want core-llc", g.Name())
	}
	for _, tr := range g.Transitions {
		if tr.Origin != "annotation" {
			t.Errorf("LLC transition %s at %s has origin %q: extracted entries must be dropped when annotations exist", tr.Msg, tr.Pos, tr.Origin)
		}
	}
	for _, state := range []string{"I", "V", "S", "O", "SO", "F+fetch", "SO+rvk"} {
		if !contains(g.States, state) {
			t.Errorf("LLC state vocabulary missing %q (have %v)", state, g.States)
		}
	}
	// The blocking ReqS path: an owned line revokes before granting S.
	var blocking bool
	for _, tr := range findTransitions(t, g, "ReqS") {
		if contains(tr.To, "SO+rvk") && contains(tr.Emits, "RvkO") {
			blocking = true
		}
	}
	if !blocking {
		t.Errorf("LLC ReqS: no annotated transition to SO+rvk emitting RvkO")
	}
	// Every message the LLC can receive must be in the graph: the dynamic
	// cross-check is only sound if the static side is complete.
	for _, msg := range []string{"ReqV", "ReqS", "ReqWT", "ReqO", "ReqWTData", "ReqOData", "ReqWB", "RspRvkO", "InvAck", "MemReadRsp"} {
		findTransitions(t, g, msg)
	}
}

// TestExtractMesiL1 checks automatic extraction on an enum-state unit.
func TestExtractMesiL1(t *testing.T) {
	graphs := loadGraphs(t, "./internal/mesi")
	g, ok := graphs["L1"]
	if !ok {
		t.Fatalf("no L1 unit extracted; got %v", unitNames(graphs))
	}
	if g.Source != "extracted" {
		t.Fatalf("mesi L1 source = %q, want extracted", g.Source)
	}
	// An incoming MInv invalidates the line and acks: the extractor must see
	// the MInvAck emission.
	var acked bool
	for _, tr := range findTransitions(t, g, "MInv") {
		if contains(tr.Emits, "MInvAck") {
			acked = true
		}
	}
	if !acked {
		t.Errorf("mesi L1 MInv: expected MInvAck in emits")
	}
	for _, tr := range g.Transitions {
		if tr.Origin != "extracted" {
			t.Errorf("mesi L1 transition %s has origin %q, want extracted", tr.Msg, tr.Origin)
		}
		if len(tr.From) == 0 {
			t.Errorf("mesi L1 transition %s has empty From (orStar must substitute *)", tr.Msg)
		}
	}
}

func unitNames(graphs map[string]*UnitGraph) []string {
	var out []string
	for name := range graphs {
		out = append(out, name)
	}
	return out
}

// annotate reads the transition annotations of one method body holding
// the given directive lines, through the shared directive reader.
func annotate(t *testing.T, lines ...string) (map[string][]Transition, error) {
	t.Helper()
	src := "package p\n\ntype LLC struct{}\n\nfunc (l *LLC) handle() {\n\t" + strings.Join(lines, "\n\t") + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "llc.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ann, _, err := annotations(&analysis.Package{Fset: fset, Files: []*ast.File{f}})
	return ann, err
}

func TestParseAnnotation(t *testing.T) {
	ann, err := annotate(t, "//spandex:transition ReqS from=S|O to=SO+rvk emits=RspS,RvkO")
	if err != nil {
		t.Fatalf("annotations: %v", err)
	}
	if len(ann["LLC"]) != 1 {
		t.Fatalf("annotations = %v, want one LLC transition", ann)
	}
	tr := ann["LLC"][0]
	if tr.Msg != "ReqS" {
		t.Errorf("Msg = %q, want ReqS", tr.Msg)
	}
	if strings.Join(tr.From, ",") != "O,S" {
		t.Errorf("From = %v, want sorted [O S]", tr.From)
	}
	if strings.Join(tr.To, ",") != "SO+rvk" {
		t.Errorf("To = %v, want [SO+rvk]", tr.To)
	}
	if strings.Join(tr.Emits, ",") != "RspS,RvkO" {
		t.Errorf("Emits = %v, want sorted [RspS RvkO]", tr.Emits)
	}
	if tr.Origin != "annotation" || tr.Pos != "llc.go:6" {
		t.Errorf("Origin, Pos = %q, %q, want annotation, llc.go:6", tr.Origin, tr.Pos)
	}

	for _, bad := range []string{
		"//spandex:transition",                     // no message
		"//spandex:transition from=S",              // message missing, field first
		"//spandex:transition ReqS",                // from= required
		"//spandex:transition ReqS from=",          // empty value
		"//spandex:transition ReqS from=S bogus=1", // unknown field
		"//spandex:transition ReqS from=S to",      // malformed field
		"//spandex:transitions ReqS from=S",        // unknown kind
	} {
		if _, err := annotate(t, bad); err == nil || !strings.Contains(err.Error(), "llc.go:6:") {
			t.Errorf("%q: err = %v, want one positioned at llc.go:6", bad, err)
		}
	}
	// Only the exact directive form is read: a spaced comment is prose.
	if ann, err := annotate(t, "// spandex:transition ReqX from=I"); err != nil || len(ann) != 0 {
		t.Errorf("spaced comment read as a directive: %v, %v", ann, err)
	}
}

func TestDiffCoverage(t *testing.T) {
	g := &UnitGraph{
		Package: "test", Unit: "X",
		Transitions: []Transition{
			{Msg: "ReqS", From: []string{"V", "S"}},
			{Msg: "ReqWB", From: []string{"*"}},
		},
	}
	observed := map[string]uint64{
		"V|ReqS":    10, // statically predicted
		"I|ReqWB":   3,  // matched by the from=* wildcard
		"SO|ReqS":   1,  // NOT in the graph: unknown
		"malformed": 1,  // no separator: unknown
	}
	res := DiffCoverage(g, observed)
	if want := []string{"SO|ReqS", "malformed"}; strings.Join(res.Unknown, " ") != strings.Join(want, " ") {
		t.Errorf("Unknown = %v, want %v", res.Unknown, want)
	}
	if want := "S|ReqS"; strings.Join(res.Gaps, " ") != want {
		t.Errorf("Gaps = %v, want [%s]", res.Gaps, want)
	}
	if res.Observed != 4 || res.Static != 2 {
		t.Errorf("Observed/Static = %d/%d, want 4/2", res.Observed, res.Static)
	}
}

// TestDOTSelfLoop: transitions with empty To render as self-loops.
func TestDOTSelfLoop(t *testing.T) {
	g := &UnitGraph{
		Package: "p", Unit: "U",
		Transitions: []Transition{{Msg: "Ping", From: []string{"A"}, Emits: []string{"Pong"}}},
	}
	dot := string(g.DOT())
	if !strings.Contains(dot, `"A" -> "A" [label="Ping / Pong"]`) {
		t.Errorf("DOT missing self-loop edge:\n%s", dot)
	}
}
