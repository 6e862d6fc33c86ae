// Package indep derives the static independence facts internal/mcheck's
// partial-order reduction consumes (generated into
// internal/mcheck/indep_tables.go by cmd/spandex-graph) from the same
// artifacts the other static checkers are built on: the per-unit
// transition graphs (internal/analysis/transgraph) and the whole-system
// message-flow graph (internal/analysis/msgflow). Three facts come out:
//
//   - guardMsgTypes — the forwardable device-request types whose handling
//     at a peer device emits a response directly to the original
//     requestor. Derived from the flow graph: every device→device edge
//     addressed via the requestor role, mapped back through the
//     response/request pairing to the request types that solicit it.
//     While such a request of device u's is pending anywhere other than
//     at u, a fresh message can appear on a previously empty device→u
//     FIFO, so u's action group is not persistent.
//
//   - settledLocalMsgTypes — the LLC-handled types whose handling against
//     a settled (V/S/O/SO) line is line-local. Derived from the LLC's
//     annotated transition blocks: a type qualifies iff it has at least
//     one block whose from-states include a bare settled state, and no
//     such block emits MemRead or MemWrite — memory traffic is precisely
//     the static signature of the non-local paths (allocation fetches,
//     victim evictions, ownership write-backs), since every allocating
//     block (from=I) emits MemRead and every flushing block emits
//     MemWrite. Types handled only inside transactions (vacuously
//     mem-silent at settled states) are excluded.
//
//   - memSoleClient — whether the LLC is the only Spandex-group unit with
//     a flow edge to or from main memory, which makes DRAM's action group
//     unconditionally committable in the model checker.
//
// The facts are deliberately conservative inputs to a dynamic check: the
// model checker still verifies line residency, open transactions, parked
// allocations and emission-target disjointness against the live directory
// before treating two LLC deliveries as independent (mcheck's llcIndep).
package indep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/format"
	"sort"
	"strings"

	"spandex/internal/analysis/msgflow"
	"spandex/internal/proto"
)

// llcUnit is the flow-graph name of the Spandex LLC.
const llcUnit = "core-llc"

// settledStates are the LLC's stable no-transaction state labels; a
// suffixed label (O+rvk, V+inv, …) is an open transaction, not settled.
var settledStates = map[string]bool{"V": true, "S": true, "O": true, "SO": true}

// Facts is the derived fact set plus the evidence each fact rests on.
type Facts struct {
	// Guard lists guardMsgTypes in proto enum order.
	Guard []string `json:"guard_msg_types"`
	// GuardEvidence maps each guarded request type to the device→device
	// response edges that implicate it ("src --rsp--> dst").
	GuardEvidence map[string][]string `json:"guard_evidence"`

	// SettledLocal lists settledLocalMsgTypes in proto enum order.
	SettledLocal []string `json:"settled_local_msg_types"`
	// SettledEvidence maps each LLC-handled type to the verdict detail:
	// the settled-state annotation blocks examined and why the type
	// qualified or not.
	SettledEvidence map[string]string `json:"settled_evidence"`

	// MemSoleClient reports that the LLC is DRAM's only Spandex client.
	MemSoleClient bool `json:"mem_sole_client"`
	// MemClients lists the Spandex-group units with a flow edge to or
	// from mem (expected: just the LLC).
	MemClients []string `json:"mem_clients"`
}

// Derive computes the facts from an already-built flow graph.
func Derive(g *msgflow.Graph) (*Facts, error) {
	f := &Facts{
		GuardEvidence:   map[string][]string{},
		SettledEvidence: map[string]string{},
	}

	devices := map[string]bool{}
	for _, d := range msgflow.Devices() {
		devices[d] = true
	}

	// guardMsgTypes: device→device requestor-role edges, mapped back to
	// the request types the response answers.
	guard := map[string]bool{}
	for _, e := range g.Edges {
		if e.Via != msgflow.RoleRequestor || !devices[e.Src] || !devices[e.Dst] {
			continue
		}
		reqs := msgflow.PairedRequests(e.Msg)
		if len(reqs) == 0 {
			return nil, fmt.Errorf("indep: device→device edge %s --%s--> %s has no paired request", e.Src, e.Msg, e.Dst)
		}
		ev := fmt.Sprintf("%s --%s--> %s", e.Src, e.Msg, e.Dst)
		for _, r := range reqs {
			guard[r] = true
			f.GuardEvidence[r] = append(f.GuardEvidence[r], ev)
		}
	}
	if len(guard) == 0 {
		return nil, fmt.Errorf("indep: no device→device requestor edges found; the forward/response protocol went missing")
	}
	f.Guard = enumSorted(guard)
	for _, evs := range f.GuardEvidence {
		sort.Strings(evs)
	}

	// settledLocalMsgTypes from the LLC's annotated blocks.
	llc := g.Units[llcUnit]
	if llc == nil {
		return nil, fmt.Errorf("indep: flow graph has no %s unit", llcUnit)
	}
	ug := llc.Graph()
	if ug.Source != "annotations" {
		return nil, fmt.Errorf("indep: %s transitions are %q, not annotated; the settled-local derivation needs the precise blocks", llcUnit, ug.Source)
	}
	local := map[string]bool{}
	for _, msg := range ug.Messages {
		settledBlocks, memEmitting := 0, 0
		var detail []string
		for _, t := range ug.Transitions {
			if t.Msg != msg || !touchesSettled(t.From) {
				continue
			}
			settledBlocks++
			if emitsMem(t.Emits) {
				memEmitting++
				detail = append(detail, fmt.Sprintf("%s emits memory traffic", t.Pos))
			}
		}
		switch {
		case settledBlocks == 0:
			f.SettledEvidence[msg] = "excluded: never handled at a settled state (transaction-only type)"
		case memEmitting > 0:
			f.SettledEvidence[msg] = "excluded: " + strings.Join(detail, "; ")
		default:
			local[msg] = true
			f.SettledEvidence[msg] = fmt.Sprintf("qualified: %d settled-state block(s), none emit MemRead/MemWrite", settledBlocks)
		}
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("indep: no settled-local LLC types derived; the annotation blocks changed shape")
	}
	f.SettledLocal = enumSorted(local)

	// memSoleClient: every Spandex-group unit with a mem edge is the LLC.
	clients := map[string]bool{}
	for _, e := range g.Edges {
		var peer string
		switch {
		case e.Dst == msgflow.Mem:
			peer = e.Src
		case e.Src == msgflow.Mem:
			peer = e.Dst
		default:
			continue
		}
		if inGroup(peer, "spandex") {
			clients[peer] = true
		}
	}
	f.MemClients = sortedSet(clients)
	f.MemSoleClient = len(f.MemClients) == 1 && f.MemClients[0] == llcUnit
	return f, nil
}

func inGroup(unit, group string) bool {
	for _, g := range msgflow.Groups(unit) {
		if g == group {
			return true
		}
	}
	return false
}

// touchesSettled reports whether a from-state list contains a bare
// settled state.
func touchesSettled(from []string) bool {
	for _, s := range from {
		if settledStates[s] {
			return true
		}
	}
	return false
}

func emitsMem(emits []string) bool {
	for _, e := range emits {
		if e == "MemRead" || e == "MemWrite" {
			return true
		}
	}
	return false
}

// enumSorted orders message-type identifiers by their proto enum ordinal
// (the order the generated Go tables list them in).
func enumSorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for m := range set {
		if _, ok := proto.MsgTypeFromIdent(m); !ok {
			panic("indep: unknown message identifier " + m)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := proto.MsgTypeFromIdent(out[i])
		b, _ := proto.MsgTypeFromIdent(out[j])
		return a < b
	})
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// JSON renders the facts as the canonical docs/indep/indep.json artifact.
func JSON(f *Facts) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DOT renders the derivation as a graph: the device→device response edges
// behind guardMsgTypes, and the LLC's settled-local type verdicts.
func DOT(f *Facts) []byte {
	var b bytes.Buffer
	b.WriteString("// Generated by spandex-graph. DO NOT EDIT.\n")
	b.WriteString("digraph indep {\n  rankdir=LR;\n  node [fontname=\"Helvetica\" fontsize=10];\n")
	b.WriteString("  subgraph cluster_guard {\n    label=\"guardMsgTypes: device→device direct responses\";\n")
	seen := map[string]bool{}
	for _, req := range f.Guard {
		fmt.Fprintf(&b, "    %q [shape=box style=filled fillcolor=lightyellow];\n", req)
		for _, ev := range f.GuardEvidence[req] {
			parts := strings.Split(ev, " ")
			// "src --rsp--> dst"
			src, rsp, dst := parts[0], strings.Trim(parts[1], "->"), parts[2]
			key := req + ev
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Fprintf(&b, "    %q -> %q [label=\"%s→%s\"];\n", req, dst, src, rsp)
		}
	}
	b.WriteString("  }\n")
	b.WriteString("  subgraph cluster_settled {\n    label=\"settledLocalMsgTypes: LLC handling local at V/S/O/SO\";\n")
	for _, m := range f.SettledLocal {
		fmt.Fprintf(&b, "    %q [shape=ellipse style=filled fillcolor=lightblue];\n", "llc:"+m)
	}
	b.WriteString("  }\n")
	fmt.Fprintf(&b, "  %q [shape=diamond];\n", fmt.Sprintf("memSoleClient=%v", f.MemSoleClient))
	b.WriteString("}\n")
	return b.Bytes()
}

// GoSource renders the facts as the generated internal/mcheck table file,
// gofmt-formatted. The derivation comments are part of the contract: they
// explain to a reader of the consuming package why each set is what it is.
func GoSource(f *Facts) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`// Code generated by spandex-graph. DO NOT EDIT.
//
// Static independence facts derived from the checked-in transition graphs
// (internal/analysis/transgraph) and the cross-unit message-flow graph
// (internal/analysis/msgflow). Regenerate with ` + "`make graph`; `make" + `
// graph-check` + "`" + ` fails if this file, docs/indep/indep.json, or
// docs/indep/indep.dot drifts from the controllers.

package mcheck

import "spandex/internal/proto"

// guardMsgTypes lists the forwardable device-request types whose handling
// at a peer device emits a response directly to the original requestor
// (paper Fig. 1c/1d): every message-flow edge from a device-kind unit to a
// requestor-role device destination, mapped back to the request types that
// solicit it. While such a request with Requestor=u is pending anywhere
// other than at u itself, a new message to u can appear on a previously
// empty device→u FIFO, so u's action group must not be committed as an
// ample set.
var guardMsgTypes = map[proto.MsgType]bool{
`)
	for _, m := range f.Guard {
		fmt.Fprintf(&b, "\tproto.%s: true,\n", m)
	}
	b.WriteString(`}

// settledLocalMsgTypes lists the LLC-handled message types whose every
// static transition out of a settled state (V, S, O, SO) emits no memory
// traffic and lands in a settled state or a same-line transaction state.
// Handling one against a dynamically settled line is line-local; types
// with any settled-state transition that may allocate, evict, or touch
// DRAM are excluded.
var settledLocalMsgTypes = map[proto.MsgType]bool{
`)
	for _, m := range f.SettledLocal {
		fmt.Fprintf(&b, "\tproto.%s: true,\n", m)
	}
	fmt.Fprintf(&b, `}

// memSoleClient records that the LLC is the only unit whose transition
// graph emits MemRead or MemWrite: every message to DRAM originates at the
// LLC, so the LLC→DRAM FIFO is DRAM's entire input and DRAM's action group
// is always a committable ample set.
const memSoleClient = %v
`, f.MemSoleClient)
	return format.Source(b.Bytes())
}
