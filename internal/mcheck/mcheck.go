package mcheck

import (
	"fmt"

	"spandex/internal/core"
)

// DefaultMaxStates bounds exploration when Config.MaxStates is zero. The
// standard scenarios complete well under it (see EXPERIMENTS.md for
// measured state counts); hitting the budget marks the result incomplete
// rather than failing.
const DefaultMaxStates = 200_000

// Reduction selects which sound state-space reductions Explore applies.
// All three preserve every violation verdict (DESIGN.md §10 gives the
// argument; reduction_test.go checks it mode-against-mode); they differ
// only in how much of the interleaving explosion they collapse.
type Reduction struct {
	// Canon canonicalizes fingerprints: pending messages hash per
	// (src, dst) FIFO with the pairs sorted instead of in flat send order,
	// merging states that differ only in how different pairs' sends
	// interleave. Devices are never renamed.
	Canon bool
	// Sleep prunes actions with sleep sets: after exploring action a at a
	// state, sibling branches need not re-run a while only actions
	// independent of it have fired. Sleep-set pruning removes transitions
	// but reaches the exact same state set.
	Sleep bool
	// Ample commits exploration at a state to a single unit's action group
	// when that group is provably persistent (reduce.go), skipping the
	// interleavings of unrelated units entirely.
	Ample bool
}

// FullReduction is the default: all reductions on.
func FullReduction() Reduction { return Reduction{Canon: true, Sleep: true, Ample: true} }

// NoReduction reproduces the PR 3 exhaustive exploration exactly.
func NoReduction() Reduction { return Reduction{} }

// Config selects what to explore.
type Config struct {
	Scenario Scenario
	// MaxStates caps distinct states explored (0 = DefaultMaxStates).
	MaxStates int
	// Coverage, when non-nil, accumulates every (LLC state, message) pair
	// processed during exploration — including along replayed prefixes —
	// for the transition-graph cross-check.
	Coverage *core.TransitionCoverage
	// Reduction selects the reductions applied; nil means FullReduction.
	Reduction *Reduction
}

// Violation is one property failure, with the interleaving that reaches it.
type Violation struct {
	// Kind is "invariant" (core.Checker), "data" (out-of-thin-air load),
	// "deadlock" (quiescent with unfinished operations), or "quiescence"
	// (terminal-state ownership audit).
	Kind   string
	Detail string
	// Trace lists every action of the violating interleaving in order:
	// device operation issues and message deliveries.
	Trace []string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("mcheck: %s violation after %d actions: %s", v.Kind, len(v.Trace), v.Detail)
}

// Result reports one scenario's exploration.
type Result struct {
	Scenario string
	// States counts distinct canonical states expanded.
	States int
	// Transitions counts state-graph edges applied (excluding replays).
	Transitions int
	// MaxDepth is the longest action sequence explored.
	MaxDepth int
	// Complete is true when the full reachable state space was explored
	// within MaxStates and no violation cut exploration short.
	Complete bool
	// AmpleCommits counts expanded states where exploration soundly
	// committed to one unit's persistent action group instead of the full
	// enabled set.
	AmpleCommits int
	// SleepSkips counts enabled actions pruned by sleep sets.
	SleepSkips int
	// Violation is the first property failure found, or nil.
	Violation *Violation
}

// visitEntry is the per-canonical-state record: the sleep set the state
// was (last) explored under, in real device coordinates, and whether its
// DFS frame is still open (the ample cycle proviso).
type visitEntry struct {
	// sleep holds the action keys NOT explored from this state (nil =
	// none: everything enabled was explored). A revisit arriving with a
	// sleep set S may be pruned only when sleep ⊆ S — everything we would
	// skip now was already skipped-and-covered then; otherwise the state
	// is re-expanded under the intersection and the record tightened
	// (strictly shrinking, so re-expansion terminates).
	sleep map[actKey]struct{}
	// onStack marks an open DFS frame. An ample-committed action leading
	// to an on-stack state could postpone the deferred actions around that
	// cycle forever (the ignoring problem); the explorer then widens the
	// state to full expansion.
	onStack bool
}

type explorer struct {
	cfg Config
	red Reduction
	sc  *scene
	enc *encoder
	// hashes holds the hashing record of the state on the DFS path at
	// each depth; a child's hash reuses its parent's.
	hashes   []*stateHash
	visited  map[uint64]*visitEntry
	res      Result
	limitHit bool
	stop     bool
}

// Explore enumerates the scenario's reachable states via depth-first
// search over delivery/issue interleavings. Backtracking is replay-based:
// sibling branches rebuild the world from a fresh system by re-applying
// the action prefix (world construction is deterministic), so no state
// snapshotting is needed. Distinct states are detected with a canonical
// structural hash and expanded once. Under the default FullReduction the
// search additionally merges states that differ only in the send order of
// different FIFOs and prunes provably redundant interleavings (see
// Reduction); exploration remains exhaustive up to those equivalences, and
// stops at the first violation, which carries its full interleaving trace.
func Explore(cfg Config) Result {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = DefaultMaxStates
	}
	red := FullReduction()
	if cfg.Reduction != nil {
		red = *cfg.Reduction
	}
	x := newExplorer(cfg, red)
	x.run()
	return x.res
}

// newExplorer returns an explorer with its own scene, encoder (and so its
// own compiled plans) and an empty visited set.
func newExplorer(cfg Config, red Reduction) *explorer {
	return &explorer{
		cfg:     cfg,
		red:     red,
		sc:      newScene(cfg.Scenario, red),
		enc:     newEncoder(),
		visited: make(map[uint64]*visitEntry),
		res:     Result{Scenario: cfg.Scenario.Name},
	}
}

// run explores from the scenario's initial state.
func (x *explorer) run() {
	x.dfs(newWorld(x.sc, x.cfg.Coverage), nil, nil, -1)
	x.res.Complete = !x.limitHit && x.res.Violation == nil
}

// replay rebuilds the world at the end of path from scratch.
func (x *explorer) replay(path []int) *world {
	w := newWorld(x.sc, x.cfg.Coverage)
	for _, a := range path {
		w.apply(a)
	}
	return w
}

func (x *explorer) report(kind, detail string, path []int) {
	x.res.Violation = &Violation{Kind: kind, Detail: detail, Trace: x.sc.trace(path)}
	x.stop = true
}

// subsetOf reports a ⊆ b (nil = empty).
func subsetOf(a, b map[actKey]struct{}) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func intersect(a, b map[actKey]struct{}) map[actKey]struct{} {
	out := make(map[actKey]struct{})
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

// dfs expands w, whose action prefix is path, under the given sleep set
// (action keys in real device coordinates that need not be explored from
// here: every state they lead to is covered by an already-explored
// sibling). unit is the acting unit of path's last action (-1 at the
// root): the parent's hash is reused for every other unit. It returns w's
// fingerprint so the caller can run the ample cycle proviso against its
// own stack.
func (x *explorer) dfs(w *world, path []int, sleep map[actKey]struct{}, unit int8) uint64 {
	if x.stop {
		return 0
	}
	depth := len(path)
	if depth == len(x.hashes) {
		x.hashes = append(x.hashes, &stateHash{})
	}
	var parent *stateHash
	if depth > 0 {
		parent = x.hashes[depth-1]
	}
	fp := x.enc.hash(w, x.hashes[depth], parent, unit)
	ent, seen := x.visited[fp]
	if seen {
		if !x.red.Sleep || subsetOf(ent.sleep, sleep) {
			return fp
		}
		// The state was previously explored under a sleep set that skipped
		// actions we are no longer entitled to skip: re-expand under the
		// intersection. The state is not re-counted.
		ent.sleep = intersect(ent.sleep, sleep)
		sleep = ent.sleep
	} else {
		ent = &visitEntry{sleep: sleep}
		x.visited[fp] = ent
		x.res.States++
		if len(path) > x.res.MaxDepth {
			x.res.MaxDepth = len(path)
		}
		if kind, detail, bad := w.violation(); bad {
			x.report(kind, detail, path)
			return fp
		}
		if x.res.States >= x.cfg.MaxStates {
			x.limitHit = true
			x.stop = true
			return fp
		}
	}

	acts := w.enumActions()
	if len(acts) == 0 {
		if !w.terminal() {
			x.report("deadlock",
				"no message in flight and no operation can issue, but scripts are unfinished: "+w.pendingOps(), path)
			return fp
		}
		for _, llc := range w.llcs {
			if err := w.chk.CheckQuiescent(llc); err != nil {
				x.report("quiescence", err.Error(), path)
				break
			}
		}
		return fp
	}

	ample := len(acts)
	if x.red.Ample {
		acts, ample = w.ampleOrder(acts)
	}

	ent.onStack = true
	widen := false
	committed := false
	var explored []action
	first := true
	for i, a := range acts {
		if i >= ample && !widen {
			committed = true
			break
		}
		if x.red.Sleep {
			if _, slept := sleep[a.key()]; slept {
				x.res.SleepSkips++
				continue
			}
		}
		cw := w
		if !first {
			// The first explored child consumes w; siblings replay the
			// prefix, yielding an identical pre-action copy of this state.
			cw = x.replay(path)
		}
		first = false
		var childSleep map[actKey]struct{}
		if x.red.Sleep {
			// Sleep inheritance (evaluated against cw, this state, before a
			// fires — the state the conditional independence relation is
			// valid in): slept actions stay asleep past an independent a,
			// and previously explored siblings go to sleep for a's subtree
			// when independent of a.
			childSleep = make(map[actKey]struct{}, len(sleep)+len(explored))
			for k := range sleep {
				if b, ok := cw.actionOfKey(k); ok && cw.indep(a, b) {
					childSleep[k] = struct{}{}
				}
			}
			for _, e := range explored {
				if cw.indep(a, e) {
					childSleep[e.key()] = struct{}{}
				}
			}
			explored = append(explored, a)
		}
		cw.apply(a.flat)
		x.res.Transitions++
		childFp := x.dfs(cw, append(append([]int(nil), path...), a.flat), childSleep, a.unit)
		if x.stop {
			ent.onStack = false
			return fp
		}
		if x.red.Ample && !widen && i < ample {
			// Cycle proviso: an ample action closing a cycle back onto the
			// open DFS stack could defer the non-ample actions forever;
			// widen this state to full expansion.
			if ce, ok := x.visited[childFp]; ok && ce.onStack {
				widen = true
			}
		}
	}
	ent.onStack = false
	if committed {
		x.res.AmpleCommits++
	}
	return fp
}
