package msgflow

import (
	"strings"
	"testing"

	"spandex/internal/analysis"
	"spandex/internal/analysis/transgraph"
)

// synth builds a minimal extracted-style unit graph under a real unit
// name (the topology table is keyed by the production vocabulary; tests
// reuse it with synthetic contents).
func synth(pkg, unit string, transitions ...transgraph.Transition) *transgraph.UnitGraph {
	msgs := map[string]bool{}
	for _, t := range transitions {
		msgs[t.Msg] = true
	}
	return &transgraph.UnitGraph{
		Package:     pkg,
		Unit:        unit,
		Source:      "extracted",
		Messages:    sortedSet(msgs),
		Transitions: transitions,
	}
}

func tr(msg string, emits ...string) transgraph.Transition {
	return transgraph.Transition{Msg: msg, From: []string{"*"}, Emits: emits, Origin: "extracted"}
}

// emitTo wires unit→dst edges explicitly through //spandex:flow emit
// overrides, so synthetic systems don't depend on AST role resolution.
func emitTo(msgdst ...string) *flowAnn {
	fa := &flowAnn{}
	for i := 0; i+1 < len(msgdst); i += 2 {
		fa.emits = append(fa.emits, EmitOverride{Msg: msgdst[i], Dst: []string{msgdst[i+1]}})
	}
	return fa
}

func queue(fa *flowAnn, msgs ...string) *flowAnn {
	if fa == nil {
		fa = &flowAnn{}
	}
	fa.queues = append(fa.queues, QueueSpec{Msgs: msgs})
	return fa
}

func violations(r *Result, check string) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Check == check {
			out = append(out, v)
		}
	}
	return out
}

// TestSyntheticCleanDAG: request down, response back, everything handled,
// nothing deferrable — all three checks pass.
func TestSyntheticCleanDAG(t *testing.T) {
	graphs := []*transgraph.UnitGraph{
		synth("spandex/internal/core", "LLC", tr("ReqV", "RspV")),
		synth("spandex/internal/denovo", "L1", tr("RspV")),
	}
	flows := map[string]*flowAnn{
		"core-llc":  emitTo("RspV", "denovo-l1"),
		"denovo-l1": emitTo("ReqV", "core-llc"),
	}
	g, err := BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(g)
	if len(r.Violations) != 0 {
		t.Fatalf("clean DAG produced violations: %+v", r.Violations)
	}
	if r.BlockableEdges != 0 {
		t.Fatalf("clean DAG has %d blockable edges, want 0", r.BlockableEdges)
	}
}

// TestSyntheticBrokenCycle: A and B emit requests at each other in a
// loop, but only A may defer — the cycle contains a guaranteed-sinkable
// hop and must not be flagged.
func TestSyntheticBrokenCycle(t *testing.T) {
	graphs := []*transgraph.UnitGraph{
		synth("spandex/internal/core", "LLC", tr("ReqV", "ReqO")),
		synth("spandex/internal/denovo", "L1", tr("ReqO", "ReqV")),
	}
	flows := map[string]*flowAnn{
		"core-llc":  queue(emitTo("ReqO", "denovo-l1"), "ReqV"),
		"denovo-l1": emitTo("ReqV", "core-llc"),
	}
	g, err := BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(g)
	if dl := violations(r, "deadlock"); len(dl) != 0 {
		t.Fatalf("broken cycle flagged as deadlock: %+v", dl)
	}
	if r.BlockableEdges != 1 {
		t.Fatalf("got %d blockable edges, want 1", r.BlockableEdges)
	}
}

// TestSyntheticUnbrokenTwoCycle: the same loop with both hops deferrable
// must be flagged.
func TestSyntheticUnbrokenTwoCycle(t *testing.T) {
	graphs := []*transgraph.UnitGraph{
		synth("spandex/internal/core", "LLC", tr("ReqV", "ReqO")),
		synth("spandex/internal/denovo", "L1", tr("ReqO", "ReqV")),
	}
	flows := map[string]*flowAnn{
		"core-llc":  queue(emitTo("ReqO", "denovo-l1"), "ReqV"),
		"denovo-l1": queue(emitTo("ReqV", "core-llc"), "ReqO"),
	}
	g, err := BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(g)
	dl := violations(r, "deadlock")
	if len(dl) != 1 {
		t.Fatalf("unbroken 2-cycle: got %d deadlock violations, want 1: %+v", len(dl), r.Violations)
	}
	if !strings.Contains(dl[0].Text, "ReqV") || !strings.Contains(dl[0].Text, "ReqO") {
		t.Fatalf("cycle report does not name both hops: %s", dl[0].Text)
	}
}

// TestSyntheticUnbrokenThreeCycle: a three-unit loop, every hop
// deferrable, exactly one cycle reported.
func TestSyntheticUnbrokenThreeCycle(t *testing.T) {
	graphs := []*transgraph.UnitGraph{
		synth("spandex/internal/core", "LLC", tr("ReqV", "ReqO")),
		synth("spandex/internal/denovo", "L1", tr("ReqO", "ReqWT")),
		synth("spandex/internal/gpucoh", "L1", tr("ReqWT", "ReqV")),
	}
	flows := map[string]*flowAnn{
		"core-llc":  queue(emitTo("ReqO", "denovo-l1"), "ReqV"),
		"denovo-l1": queue(emitTo("ReqWT", "gpucoh-l1"), "ReqO"),
		"gpucoh-l1": queue(emitTo("ReqV", "core-llc"), "ReqWT"),
	}
	g, err := BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(g)
	if dl := violations(r, "deadlock"); len(dl) != 1 {
		t.Fatalf("unbroken 3-cycle: got %d deadlock violations, want 1: %+v", len(dl), r.Violations)
	}
}

// TestSyntheticOrphanedEmit: an emitted message with no handler at its
// destination is a completeness violation.
func TestSyntheticOrphanedEmit(t *testing.T) {
	graphs := []*transgraph.UnitGraph{
		synth("spandex/internal/core", "LLC", tr("ReqV", "RspV", "Inv")),
		synth("spandex/internal/denovo", "L1", tr("RspV")),
	}
	flows := map[string]*flowAnn{
		"core-llc":  emitTo("RspV", "denovo-l1", "Inv", "denovo-l1"),
		"denovo-l1": emitTo("ReqV", "core-llc"),
	}
	g, err := BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(g)
	comp := violations(r, "completeness")
	if len(comp) != 1 || comp[0].Msg != "Inv" {
		t.Fatalf("orphaned Inv not flagged: %+v", r.Violations)
	}
	if !strings.Contains(comp[0].Text, "orphaned message") {
		t.Fatalf("unexpected violation text: %s", comp[0].Text)
	}
}

// TestSyntheticStatefulCompleteness: an annotated destination is checked
// per state — queue rules and unreachability proofs both discharge pairs,
// anything left is flagged.
func TestSyntheticStatefulCompleteness(t *testing.T) {
	llc := &transgraph.UnitGraph{
		Package:  "spandex/internal/core",
		Unit:     "LLC",
		Source:   "annotations",
		States:   []string{"I", "V", "V+inv"},
		Messages: []string{"ReqV"},
		Transitions: []transgraph.Transition{
			{Msg: "ReqV", From: []string{"I"}, To: []string{"V"}, Emits: []string{"RspV"}, Origin: "annotation"},
		},
		Unreachable: []transgraph.Unreachable{
			{Msgs: []string{"ReqV"}, At: []string{"V+inv"}, Why: "synthetic proof"},
		},
	}
	graphs := []*transgraph.UnitGraph{
		llc,
		synth("spandex/internal/denovo", "L1", tr("RspV")),
	}
	flows := map[string]*flowAnn{
		"core-llc":  emitTo("RspV", "denovo-l1"),
		"denovo-l1": emitTo("ReqV", "core-llc"),
	}
	g, err := BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(g)
	comp := violations(r, "completeness")
	// State V is neither handled, queued, nor proven unreachable.
	if len(comp) != 1 || !strings.Contains(comp[0].Text, "state V of core-llc") {
		t.Fatalf("uncovered state V not flagged exactly once: %+v", comp)
	}
	if r.ProvenExceptions != 1 {
		t.Fatalf("got %d proven exceptions, want 1", r.ProvenExceptions)
	}

	// A queue rule for state V discharges the remaining pair.
	flows["core-llc"].queues = []QueueSpec{{Msgs: []string{"ReqV"}, At: []string{"V"}}}
	g, err = BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	if r := Verify(g); len(violations(r, "completeness")) != 0 {
		t.Fatalf("queue rule did not discharge the pair: %+v", r.Violations)
	}
}

// TestSyntheticStallNoSupply: a wait whose via messages never produce an
// awaited response is flagged.
func TestSyntheticStallNoSupply(t *testing.T) {
	graphs := []*transgraph.UnitGraph{
		synth("spandex/internal/core", "LLC", tr("ReqV", "ReqO"), tr("RspO")),
		synth("spandex/internal/denovo", "L1", tr("ReqO")), // handles ReqO, emits nothing
	}
	flows := map[string]*flowAnn{
		"core-llc": {
			emits: []EmitOverride{{Msg: "ReqO", Dst: []string{"denovo-l1"}}},
			waits: []WaitSpec{{Name: "rvk", Awaits: []string{"RspO"}, Via: []string{"ReqO"}, Opener: "any"}},
		},
		"denovo-l1": emitTo("ReqV", "core-llc"),
	}
	g, err := BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(g)
	stalls := violations(r, "stall")
	supply := false
	for _, v := range stalls {
		if strings.Contains(v.Text, "no dependency path") {
			supply = true
		}
	}
	if !supply {
		t.Fatalf("broken supply chain not flagged: %+v", r.Violations)
	}

	// Closing the chain (denovo answers ReqO with RspO) clears it.
	graphs[1] = synth("spandex/internal/denovo", "L1", tr("ReqO", "RspO"))
	flows["denovo-l1"] = emitTo("ReqV", "core-llc", "RspO", "core-llc")
	g, err = BuildFromGraphs(graphs, nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	if r := Verify(g); len(violations(r, "stall")) != 0 {
		t.Fatalf("supplied wait still flagged: %+v", r.Violations)
	}
}

// loadTree loads the repository's protocol packages.
func loadTree(t *testing.T) []*analysis.Package {
	t.Helper()
	pkgs, err := analysis.Load("../../..", Packages...)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestRealTreeVerifies: the production protocol stack builds into a flow
// graph with no violations — no orphaned messages, no unbroken cycles,
// no unsupplied waits — and with the expected analysis surface.
func TestRealTreeVerifies(t *testing.T) {
	g, err := Build(loadTree(t))
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(g)
	for _, v := range r.Violations {
		t.Errorf("%s: %s", v.Check, v.Text)
	}
	if len(g.Units) != 8 {
		t.Errorf("got %d units, want 8 (7 controllers + mem)", len(g.Units))
	}
	if len(g.Edges) < 100 {
		t.Errorf("got %d edges, want >= 100", len(g.Edges))
	}
	if r.BlockableEdges == 0 {
		t.Error("no blockable edges — queue annotations did not load")
	}
	if r.ProvenExceptions == 0 {
		t.Error("no proven exceptions — unreachability declarations did not load")
	}
}

// TestMutantsDetected: each flow-graph mutation mirroring a -tags
// spandexmut protocol mutant must surface as at least one violation of
// the expected class.
func TestMutantsDetected(t *testing.T) {
	expect := map[string]string{
		"dropinvack": "completeness",
		"skiprvko":   "stall",
	}
	pkgs := loadTree(t)
	for name, wantCheck := range expect {
		g, err := Build(pkgs)
		if err != nil {
			t.Fatal(err)
		}
		if err := Mutations[name](g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := Verify(g)
		if len(r.Violations) == 0 {
			t.Errorf("%s: no violations — the checker cannot see this bug class", name)
			continue
		}
		if len(violations(r, wantCheck)) == 0 {
			t.Errorf("%s: no %s violation among %+v", name, wantCheck, r.Violations)
		}
	}
}
