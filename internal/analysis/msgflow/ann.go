package msgflow

import (
	"fmt"
	"strings"

	"spandex/internal/analysis"
)

// flowAnn aggregates one unit's //spandex:flow directives. Their meaning
// (analysis.Directive reads the grammar), with every directive inside a
// method body of the unit:
//
//	//spandex:flow queue <M1,M2,...> [at=<S1|S2|...>]
//
// The listed messages may be deferred (queued behind a busy line, parked
// behind an in-flight grant) instead of consumed; for annotated units the
// at= states say where (omitted = any state).
//
//	//spandex:flow wait <name> awaits=<A1,A2> via=<V1,V2> [opener=any]
//
// A blocking condition: for annotated units name is a state suffix
// ("+rvk") and the opener transitions — those entering a suffixed state
// from an unsuffixed one — must emit a via message; opener=any skips that
// per-transition obligation (used when the wait opens on a different line
// than the handled one, or the unit's graph is state-less). The via
// messages must, transitively through the system, produce one of the
// awaited messages back at this unit.
//
//	//spandex:flow emit <Msg> dst=<unit1,unit2>
//
// Overrides the AST destination classification for Msg: the emission only
// ever reaches the listed unit kinds (e.g. revocations only go to
// owner-capable device kinds).
type flowAnn struct {
	queues []QueueSpec
	waits  []WaitSpec
	emits  []EmitOverride
}

// collectFlowAnns reads every //spandex:flow directive in pkg, keyed by
// the canonical unit name of the enclosing method's receiver. The shared
// reader has already checked the grammar (transgraph.Extract fails on a
// malformed directive first); what needs the unit graphs is checked here.
func collectFlowAnns(pkg *analysis.Package, names map[string]string, out map[string]*flowAnn) error {
	for _, d := range pkg.Directives() {
		kind, ok := strings.CutPrefix(d.Kind, "flow ")
		if !ok || d.Err != "" {
			continue
		}
		unit, ok := names[d.Recv]
		if !ok {
			return fmt.Errorf("%s: //spandex:%s directive in a method of %s, which is not a message-handling unit", pkg.Fset.Position(d.Pos), d.Kind, d.Recv)
		}
		if out[unit] == nil {
			out[unit] = &flowAnn{}
		}
		fa, pos := out[unit], pkg.ShortPos(d.Pos)
		switch kind {
		case "queue":
			fa.queues = append(fa.queues, QueueSpec{Msgs: d.Operand, At: d.Fields["at"], Pos: pos})
		case "wait":
			w := WaitSpec{Name: d.Operand[0], Awaits: d.Fields["awaits"], Via: d.Fields["via"], Pos: pos}
			if d.Fields["opener"] != nil {
				w.Opener = "any"
			}
			fa.waits = append(fa.waits, w)
		case "emit":
			fa.emits = append(fa.emits, EmitOverride{Msg: d.Operand[0], Dst: d.Fields["dst"], Pos: pos})
		}
	}
	return nil
}
