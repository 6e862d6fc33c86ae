// Package msgflow stitches the per-unit transition graphs extracted by
// transgraph into one whole-system message-flow graph and verifies three
// global properties no single-unit analysis can see:
//
//   - Completeness: every message a unit can emit must have a defined
//     handler at every possible state of every unit that can receive it,
//     or the (state, message) pair must be declared impossible with a
//     //spandex:unreachable proof (transgraph's grammar). An emitted
//     message with no receiver-side handler is an orphan: in simulation
//     it is a panic waiting for the right race, in hardware a dropped
//     coherence action.
//
//   - Deadlock-freedom: a message a receiver may defer (queue behind a
//     busy line, park behind an in-flight grant) occupies buffering until
//     the blocking condition clears. If the chain "handling M causes
//     emitting M', which its receiver may defer, whose handling causes
//     emitting M”…" closes into a cycle in which every hop is
//     deferrable, the system can deadlock: every queue in the cycle waits
//     for the next. The check builds the message-dependency graph over
//     flow edges, restricts it to deferrable hops, and requires the rest
//     to be acyclic — every cycle must be broken by a guaranteed-sinkable
//     hop (a message class its receiver always consumes immediately).
//
//   - Stall-safety: every blocking wait (a transaction suffix like the
//     LLC's +rvk, or an extracted unit's declared wait) must have a
//     statically identified progress supplier: the messages it awaits
//     must be handled and must be reachable consequences — through the
//     dependency graph, across units — of the messages the wait sends
//     out when it opens. A wait whose supply chain is broken stalls
//     forever the first time it opens.
//
// The flow graph's edges come from two static sources. The emitted-message
// vocabulary per (unit, incoming message) is transgraph's per-unit
// relation. The destination of each emission is classified by this
// package's own AST pass over the protocol packages, which resolves every
// proto.Message composite literal's Dst expression to a destination role
// (see emits.go) and the role to concrete unit kinds via the fixed
// system topology below.
//
// Units annotate their queueing/waiting behaviour with //spandex:flow
// directives inside their methods (see ann.go for the grammar); the
// //spandex:flow emit directive overrides the AST classification where
// the destination set is an invariant the code cannot express (e.g. the
// LLC only forwards requests to owner-capable device kinds).
//
// Artifacts (canonical JSON and DOT) live in docs/msgflow/ and are kept
// fresh by `spandex-graph -check` in CI. The same check requires every
// entry of Mutations (the spandexmut mutants dropinvack and skiprvko) to
// surface as at least one violation, which anchors the checker's power.
package msgflow

import (
	"fmt"
	"sort"

	"spandex/internal/analysis"
	"spandex/internal/analysis/transgraph"
	"spandex/internal/proto"
)

// Packages is the protocol package set the flow graph covers.
var Packages = []string{
	"spandex/internal/core",
	"spandex/internal/mesi",
	"spandex/internal/denovo",
	"spandex/internal/gpucoh",
	"spandex/internal/hmesi",
}

// Mem is the pseudo-unit modelling main memory (internal/dram): it sinks
// MemRead/MemWrite immediately and answers each MemRead with MemReadRsp.
const Mem = "mem"

// Destination roles an emit site resolves to (emits.go).
const (
	RoleRequestor = "requestor" // Dst: m.Requestor — the original requestor
	RoleSender    = "sender"    // Dst: m.Src — whoever delivered the handled message
	RoleParent    = "parent"    // Dst: cfg.ParentID / llcID — the unit's parent
	RoleChild     = "child"     // Dst: devices[i] / children[i] — a child unit
	RoleMem       = "mem"       // Dst: MemID — main memory
	RoleL1        = "l1"        // injected into the bound MESI L1 (TU l1V)
)

// topo fixes who can talk to whom. Two hierarchies exist: the Spandex
// configurations (group "spandex", rooted at the core LLC) and the
// hierarchical-MESI baseline (group "hmesi", rooted at the directory).
// mesi-l1 and the GPU L1s appear in both; a flow edge between two units
// requires a shared group.
type topo struct {
	parents  []string
	children []string
	groups   []string
}

var topology = map[string]topo{
	"core-llc":        {parents: []string{Mem}, children: []string{"core-mesitu", "denovo-l1", "gpucoh-l1"}, groups: []string{"spandex"}},
	"core-mesitu":     {parents: []string{"core-llc"}, children: []string{"mesi-l1"}, groups: []string{"spandex"}},
	"mesi-l1":         {parents: []string{"core-mesitu", "hmesi-directory"}, groups: []string{"spandex", "hmesi"}},
	"denovo-l1":       {parents: []string{"core-llc", "hmesi-gpul2"}, groups: []string{"spandex", "hmesi"}},
	"gpucoh-l1":       {parents: []string{"core-llc", "hmesi-gpul2"}, groups: []string{"spandex", "hmesi"}},
	"hmesi-directory": {parents: []string{Mem}, children: []string{"mesi-l1", "hmesi-gpul2"}, groups: []string{"hmesi"}},
	"hmesi-gpul2":     {parents: []string{"hmesi-directory"}, children: []string{"denovo-l1", "gpucoh-l1"}, groups: []string{"hmesi"}},
	Mem:               {children: []string{"core-llc", "hmesi-directory"}, groups: []string{"spandex", "hmesi"}},
}

// pairedReq maps each response message to the request types whose
// requestor it may be addressed to (Dst: m.Requestor). A unit is a
// requestor candidate when it emits one of the paired requests on its own
// behalf (Requestor set to itself, not preserved from an incoming
// message). RspV/NackV pair with ReqS too: the LLC answers a partial-line
// MESI ReqS like a ReqV (option 2), and RspOData with ReqS for the
// ownership-transfer variant (option 3).
var pairedReq = map[string][]string{
	"RspV":       {"ReqV", "ReqS"},
	"NackV":      {"ReqV", "ReqS"},
	"RspS":       {"ReqS"},
	"RspWT":      {"ReqWT"},
	"RspO":       {"ReqO"},
	"RspOData":   {"ReqOData", "ReqS"},
	"RspWTData":  {"ReqWTData"},
	"RspWB":      {"ReqWB"},
	"MDataS":     {"MGetS"},
	"MDataE":     {"MGetS"},
	"MDataM":     {"MGetM"},
	"MAckWB":     {"MPutM"},
	"MemReadRsp": {"MemRead"},
}

// Devices returns the Spandex network device units: the LLC's children in
// the topology table. These are the units that hold a NodeID on the
// Spandex network below the LLC (the MESI TU fronts its L1).
func Devices() []string {
	return append([]string(nil), topology["core-llc"].children...)
}

// Groups returns the topology groups a unit belongs to (nil for unknown
// units).
func Groups(unit string) []string {
	return append([]string(nil), topology[unit].groups...)
}

// PairedRequests returns the request types whose requestor a response
// message may be addressed to, per the pairedReq table (nil when msg is
// not a requestor-addressed response).
func PairedRequests(msg string) []string {
	return append([]string(nil), pairedReq[msg]...)
}

// Edge is one whole-system flow edge: Src may emit Msg to Dst.
type Edge struct {
	Src   string `json:"src"`
	Msg   string `json:"msg"`
	Dst   string `json:"dst"`
	Class string `json:"class"`
	// Via records how the destination was derived: a role constant,
	// "annotation" (//spandex:flow emit), or "builtin" (the mem model).
	Via string `json:"via"`
}

func (e Edge) key() string { return e.Src + "→" + e.Msg + "→" + e.Dst }

// Unit is one node of the flow graph.
type Unit struct {
	Name    string `json:"name"`
	Package string `json:"package"`
	// Source mirrors transgraph ("annotations"/"extracted"), or
	// "builtin" for mem.
	Source string `json:"source"`
	// Handled is the incoming-message vocabulary.
	Handled []string `json:"handled"`
	// Deferrable lists handled messages the unit may queue or defer
	// instead of consuming immediately (//spandex:flow queue). Everything
	// else is guaranteed-sinkable.
	Deferrable []string    `json:"deferrable,omitempty"`
	Queues     []QueueSpec `json:"queues,omitempty"`
	Waits      []WaitSpec  `json:"waits,omitempty"`

	graph *transgraph.UnitGraph
}

// Graph returns the unit's underlying per-unit transition graph.
func (u *Unit) Graph() *transgraph.UnitGraph { return u.graph }

// QueueSpec is one //spandex:flow queue directive: at the listed states
// (or any state, when At is empty) the listed messages are deferred
// rather than processed.
type QueueSpec struct {
	Msgs []string `json:"msgs"`
	At   []string `json:"at,omitempty"`
	Pos  string   `json:"pos"`
}

// WaitSpec is one //spandex:flow wait directive: a named blocking
// condition (a state suffix like "+rvk" for annotated units, a label for
// extracted ones) that resolves when one of Awaits arrives, and whose
// progress is supplied by the Via messages sent out when the wait opens.
// Opener "any" means the opening emission cannot be tied to a transition
// of this unit's own graph (e.g. the LLC opens +evict on the victim line
// while transitioning the requested line), so only the supply chain is
// checked.
type WaitSpec struct {
	Name   string   `json:"name"`
	Awaits []string `json:"awaits"`
	Via    []string `json:"via"`
	Opener string   `json:"opener,omitempty"`
	Pos    string   `json:"pos"`
}

// EmitOverride is one //spandex:flow emit directive.
type EmitOverride struct {
	Msg string
	Dst []string
	Pos string
}

// Graph is the whole-system flow graph plus everything the checks need.
type Graph struct {
	Units map[string]*Unit
	Edges []Edge

	// emits[unit][msg] is true when the AST pass or an override found an
	// emit site (used to cross-check transition emit vocabularies).
	emits map[string]map[string]bool
}

// Violation is one finding of any of the three checks.
type Violation struct {
	Check string `json:"check"` // "completeness" | "deadlock" | "stall"
	// Unit is the unit the finding is anchored to.
	Unit string `json:"unit"`
	Msg  string `json:"msg"`
	Text string `json:"text"`
}

// Result is what a full verification run produces.
type Result struct {
	Graph      *Graph
	Violations []Violation
	// ProvenExceptions counts (state, message) completeness holes
	// covered by //spandex:unreachable declarations.
	ProvenExceptions int
	// BlockableEdges / CyclesBroken summarize the deadlock analysis.
	BlockableEdges int
	CheckedPairs   int
}

// Build extracts the per-unit graphs from already-loaded protocol packages
// (Packages), runs the emit-classification pass and assembles the flow
// graph. Each call extracts afresh, so one load serves many independent
// builds (a mutation edits only its own build's unit graphs).
func Build(pkgs []*analysis.Package) (*Graph, error) {
	var graphs []*transgraph.UnitGraph
	sites := map[string][]emitSite{}
	flows := map[string]*flowAnn{}
	for _, pkg := range pkgs {
		gs, err := transgraph.Extract(pkg)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, gs...)
		names := map[string]string{}
		for _, g := range gs {
			names[g.Unit] = g.Name()
		}
		if err := collectEmitSites(pkg, names, sites); err != nil {
			return nil, err
		}
		if err := collectFlowAnns(pkg, names, flows); err != nil {
			return nil, err
		}
	}
	return assemble(graphs, sites, flows)
}

// BuildFromGraphs assembles a flow graph from pre-built unit graphs and
// explicit emit sites — the test entry point for synthetic systems.
func BuildFromGraphs(graphs []*transgraph.UnitGraph, sites map[string][]emitSite, flows map[string]*flowAnn) (*Graph, error) {
	return assemble(graphs, sites, flows)
}

// assemble resolves every (unit, emitted message) pair to destination
// unit kinds and materializes the edge set.
func assemble(graphs []*transgraph.UnitGraph, sites map[string][]emitSite, flows map[string]*flowAnn) (*Graph, error) {
	g := &Graph{Units: map[string]*Unit{}, emits: map[string]map[string]bool{}}
	for _, ug := range graphs {
		name := ug.Name()
		u := &Unit{Name: name, Package: ug.Package, Source: ug.Source, Handled: ug.Messages, graph: ug}
		if fa := flows[name]; fa != nil {
			u.Queues = fa.queues
			u.Waits = fa.waits
			def := map[string]bool{}
			for _, q := range fa.queues {
				for _, m := range q.Msgs {
					def[m] = true
				}
			}
			u.Deferrable = sortedSet(def)
		}
		g.Units[name] = u
	}
	g.Units[Mem] = memUnit()

	// The topology table and the graph set must agree.
	for name := range g.Units {
		if _, ok := topology[name]; !ok {
			return nil, fmt.Errorf("msgflow: unit %s has no topology entry", name)
		}
	}

	edges := map[string]Edge{}
	addEdge := func(src, msg, dst, via string) {
		if g.Units[src] == nil || g.Units[dst] == nil {
			return // synthetic sub-systems omit units; never edge into a ghost
		}
		if !coexist(src, dst) {
			return
		}
		e := Edge{Src: src, Msg: msg, Dst: dst, Class: classOf(msg), Via: via}
		edges[e.key()] = e
	}

	// Pass 1: roles resolvable without the edge set.
	type senderSite struct{ unit, msg, pos string }
	var senders []senderSite
	reqSelf := map[string]map[string]bool{} // msg -> set of self-requesting units
	for unit, list := range sites {
		if _, ok := g.Units[unit]; !ok {
			continue // receiver type without a unit graph (e.g. pass-through)
		}
		over := map[string][]string{}
		if fa := flows[unit]; fa != nil {
			for _, o := range fa.emits {
				over[o.Msg] = o.Dst
			}
		}
		for _, s := range list {
			for _, msg := range s.msgs {
				g.markEmit(unit, msg)
				if s.reqSelf {
					if reqSelf[msg] == nil {
						reqSelf[msg] = map[string]bool{}
					}
					reqSelf[msg][unit] = true
				}
				if dsts, ok := over[msg]; ok {
					for _, d := range dsts {
						addEdge(unit, msg, d, "annotation")
					}
					continue
				}
				switch s.role {
				case RoleParent:
					for _, p := range topology[unit].parents {
						addEdge(unit, msg, p, RoleParent)
					}
				case RoleChild:
					for _, c := range topology[unit].children {
						addEdge(unit, msg, c, RoleChild)
					}
				case RoleMem:
					addEdge(unit, msg, Mem, RoleMem)
				case RoleL1:
					addEdge(unit, msg, "mesi-l1", RoleL1)
				case RoleRequestor:
					// resolved below, after reqSelf is complete
				case RoleSender:
					senders = append(senders, senderSite{unit, msg, s.pos})
				default:
					return nil, fmt.Errorf("msgflow: %s: unclassified emit of %s at %s", unit, msg, s.pos)
				}
			}
		}
	}
	// Annotation-only emits (overrides for messages whose sites could not
	// be classified at all, or builtin mem edges).
	for unit, fa := range flows {
		if fa == nil {
			continue
		}
		for _, o := range fa.emits {
			g.markEmit(unit, o.Msg)
			for _, d := range o.Dst {
				addEdge(unit, o.Msg, d, "annotation")
			}
		}
	}
	g.markEmit(Mem, "MemReadRsp")
	for _, rd := range topology[Mem].children {
		if g.emits[rd]["MemRead"] {
			addEdge(rd, "MemRead", Mem, "builtin")
			addEdge(Mem, "MemReadRsp", rd, "builtin")
		}
		if g.emits[rd]["MemWrite"] {
			addEdge(rd, "MemWrite", Mem, "builtin")
		}
	}

	// Requestor roles: the destination is whoever issued the paired
	// request on its own behalf.
	for unit, list := range sites {
		if _, ok := g.Units[unit]; !ok {
			continue
		}
		for _, s := range list {
			if s.role != RoleRequestor {
				continue
			}
			for _, msg := range s.msgs {
				reqs := pairedReq[msg]
				if reqs == nil {
					return nil, fmt.Errorf("msgflow: %s emits %s to m.Requestor at %s but %s has no paired request", unit, msg, s.pos, msg)
				}
				found := false
				for _, r := range reqs {
					for cand := range reqSelf[r] {
						addEdge(unit, msg, cand, RoleRequestor)
						found = true
					}
				}
				if !found {
					return nil, fmt.Errorf("msgflow: %s emits %s to m.Requestor at %s but no unit issues %v on its own behalf", unit, msg, s.pos, reqs)
				}
			}
		}
	}

	// Pass 2: sender roles. X sent to m.Src while handling M goes back to
	// whoever has an edge delivering M here. Iterate to a fixpoint since
	// sender-derived edges may feed other sender resolutions.
	for iter := 0; iter < 3; iter++ {
		for _, s := range senders {
			u := g.Units[s.unit]
			incoming := map[string]bool{}
			for _, t := range u.graph.Transitions {
				for _, em := range t.Emits {
					if em == s.msg {
						incoming[t.Msg] = true
					}
				}
			}
			if len(incoming) == 0 {
				return nil, fmt.Errorf("msgflow: %s emits %s to m.Src at %s outside any extracted transition", s.unit, s.msg, s.pos)
			}
			for _, e := range edges {
				if e.Dst == s.unit && incoming[e.Msg] {
					addEdge(s.unit, s.msg, e.Src, RoleSender)
				}
			}
		}
	}

	for _, e := range edges {
		g.Edges = append(g.Edges, e)
	}
	sort.Slice(g.Edges, func(i, j int) bool { return g.Edges[i].key() < g.Edges[j].key() })

	// Every message a transition claims to emit must have a resolved
	// destination, or the edge set silently under-approximates.
	for name, u := range g.Units {
		for _, t := range u.graph.Transitions {
			for _, em := range t.Emits {
				if !g.emits[name][em] {
					return nil, fmt.Errorf("msgflow: %s transition %s emits %s but no emit site or //spandex:flow emit override classifies its destination", name, t.Msg, em)
				}
			}
		}
	}
	return g, nil
}

func (g *Graph) markEmit(unit, msg string) {
	if g.emits[unit] == nil {
		g.emits[unit] = map[string]bool{}
	}
	g.emits[unit][msg] = true
}

// memUnit synthesizes the main-memory pseudo-unit: MemRead yields a
// MemReadRsp to the reader, MemWrite is absorbed.
func memUnit() *Unit {
	ug := &transgraph.UnitGraph{
		Package:  "spandex/internal/dram",
		Unit:     "Memory",
		Source:   "builtin",
		Messages: []string{"MemRead", "MemWrite"},
		Transitions: []transgraph.Transition{
			{Msg: "MemRead", From: []string{"*"}, Emits: []string{"MemReadRsp"}, Origin: "builtin"},
			{Msg: "MemWrite", From: []string{"*"}, Origin: "builtin"},
		},
	}
	return &Unit{Name: Mem, Package: ug.Package, Source: "builtin", Handled: ug.Messages, graph: ug}
}

func coexist(a, b string) bool {
	for _, ga := range topology[a].groups {
		for _, gb := range topology[b].groups {
			if ga == gb {
				return true
			}
		}
	}
	return false
}

func classOf(msg string) string {
	t, ok := proto.MsgTypeFromIdent(msg)
	if !ok {
		return "?"
	}
	return proto.ClassOf(t).String()
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
