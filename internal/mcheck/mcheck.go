package mcheck

import (
	"fmt"
	"slices"

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
	// for the transition-graph cross-check. A transition the memo prunes
	// is not run and so not counted again, but the same pair was recorded
	// when the memo learned it: the set of pairs is that of every
	// transition explored, and only per-pair counts fall.
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
	// Transitions counts state-graph edges explored (excluding replays),
	// whether run on a world or predicted by the transition memo.
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
	// WalkedBytes counts the canonical bytes the state hash wrote walking
	// world state: every section and message of the initial state, and the
	// acting unit's section and the sent messages of each transition the
	// memo did not know (a predicted record walks nothing). ReplayedActions
	// counts the actions re-applied to rebuild a state for a sibling branch
	// that needs a world. They are the two costs of a transition, exact on
	// any host, so a change to either shows as a count.
	WalkedBytes     int
	ReplayedActions int
	// Violation is the first property failure found, or nil.
	Violation *Violation
}

// visitEntry is the per-canonical-state record: the sleep set the state
// was (last) explored under, in real device coordinates, and whether its
// DFS frame is still open (the ample cycle proviso).
type visitEntry struct {
	// sleep holds the action keys NOT explored from this state (empty =
	// none: everything enabled was explored). A revisit arriving with a
	// sleep set S may be pruned only when sleep ⊆ S — everything we would
	// skip now was already skipped-and-covered then; otherwise the state
	// is re-expanded under the intersection and the record tightened
	// (strictly shrinking, so re-expansion terminates).
	sleep []actKey
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
	// w is the exploration's one world. The DFS hands it down the path
	// and, to backtrack, resets it and replays (replay): exactly one
	// world is live at a time.
	w *world
	// hashes holds the hashing record of the state on the DFS path at
	// each depth, and path the actions leading to it; a child's record
	// reuses its parent's.
	hashes []*stateHash
	path   []int
	// memo holds every transition walked in this exploration, by acting
	// unit, that unit's section hash before the action, and the action. A
	// unit's next step depends only on its section and the action
	// (reduce.go), so a later occurrence of a transition predicts the
	// child's record without a world.
	memo     map[memoKey]step
	visited  map[uint64]*visitEntry
	res      Result
	limitHit bool
	stop     bool
}

// memoKey names a transition: the acting unit, its section hash before
// the action, and the action: an issue, or the delivery of the message of
// hash msg.
type memoKey struct {
	sec, msg uint64
	unit     int8
	issue    bool
}

// key returns the memo key of action a at the state whose record is f.
func (x *explorer) key(f *stateHash, a action) memoKey {
	k := memoKey{sec: f.secs[x.sc.sectionOf(a.unit)].h, unit: a.unit, issue: a.issue}
	if !a.issue {
		k.msg = f.msgs[a.flat-x.sc.ndev].h
	}
	return k
}

// Explore enumerates the scenario's reachable states via depth-first
// search over delivery/issue interleavings. Distinct states are detected
// with a canonical structural hash and expanded once. Exploration is
// memo-driven: every transition walked is kept, so a later occurrence of
// it predicts the child's hash without running it, and a child that
// prediction shows to be already explored (and not owed a re-expansion by
// its sleep set) needs no world at all. One world serves the whole
// exploration: a child that needs a world takes the parent's if no sibling
// has consumed it yet, and otherwise resets it to the initial state and
// re-applies the action prefix (a reset world is exactly a fresh one, and
// the system is deterministic), so no state snapshotting is needed.
// Under the default FullReduction the search additionally merges states
// that differ only in the send order of different FIFOs and prunes
// provably redundant interleavings (see Reduction); exploration remains
// exhaustive up to those equivalences, and stops at the first violation,
// which carries its full interleaving trace.
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

// newExplorer returns an explorer with its own scene, world, encoder (and
// so its own compiled plans), an empty memo and an empty visited set.
func newExplorer(cfg Config, red Reduction) *explorer {
	sc := newScene(cfg.Scenario, red)
	return &explorer{
		cfg:     cfg,
		red:     red,
		sc:      sc,
		enc:     newEncoder(),
		w:       newWorld(sc, cfg.Coverage),
		memo:    make(map[memoKey]step),
		visited: make(map[uint64]*visitEntry),
		res:     Result{Scenario: cfg.Scenario.Name},
	}
}

// run explores from the scenario's initial state.
func (x *explorer) run() {
	x.dfs(x.w, x.enc.root(x.sc, x.w, x.record(0)), 0, nil)
	x.res.Complete = !x.limitHit && x.res.Violation == nil
	x.res.WalkedBytes = x.enc.walked
}

// record returns the hashing record of the DFS state at depth.
func (x *explorer) record(depth int) *stateHash {
	for len(x.hashes) <= depth {
		x.hashes = append(x.hashes, &stateHash{})
	}
	return x.hashes[depth]
}

// replay rebuilds the state at the end of path in the explorer's world:
// it resets the world to the initial state and re-applies path. Whatever
// state the world was in is gone, so replay may run only once no DFS frame
// still needs it: dfs replays for a child after its previous sibling's
// subtree has returned, and every frame on the path has handed the world
// down.
func (x *explorer) replay(path []int) *world {
	x.w.reset()
	for _, a := range path {
		x.w.apply(a)
	}
	x.res.ReplayedActions += len(path)
	return x.w
}

func (x *explorer) report(kind, detail string, path []int) {
	x.res.Violation = &Violation{Kind: kind, Detail: detail, Trace: x.sc.trace(path)}
	x.stop = true
}

// pruned reports whether the state of hash fp, reached under sleep, needs
// no expansion: it was explored before under a sleep set that skipped
// nothing sleep does not skip too.
func (x *explorer) pruned(fp uint64, sleep []actKey) bool {
	ent, seen := x.visited[fp]
	return seen && (!x.red.Sleep || subsetOf(ent.sleep, sleep))
}

// subsetOf reports a ⊆ b. A sleep set is a short list of distinct action
// keys (nil = empty).
func subsetOf(a, b []actKey) bool {
	if len(a) > len(b) {
		return false
	}
	for _, k := range a {
		if !slices.Contains(b, k) {
			return false
		}
	}
	return true
}

func intersect(a, b []actKey) []actKey {
	var out []actKey
	for _, k := range a {
		if slices.Contains(b, k) {
			out = append(out, k)
		}
	}
	return out
}

// dfs expands the state at the given depth, reached by x.path[:depth],
// whose world is w and whose hashing record x.hashes[depth] hashes to fp,
// under the given sleep set (action keys in real device coordinates that
// need not be explored from here: every state they lead to is covered by
// an already-explored sibling).
func (x *explorer) dfs(w *world, fp uint64, depth int, sleep []actKey) {
	if x.stop {
		return
	}
	path := x.path[:depth]
	ent, seen := x.visited[fp]
	if seen {
		if x.pruned(fp, sleep) {
			return
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
		if depth > x.res.MaxDepth {
			x.res.MaxDepth = depth
		}
		if kind, detail, bad := w.violation(); bad {
			x.report(kind, detail, path)
			return
		}
		if x.res.States >= x.cfg.MaxStates {
			x.limitHit = true
			x.stop = true
			return
		}
	}

	acts := w.enumActions()
	if len(acts) == 0 {
		if !w.terminal() {
			x.report("deadlock",
				"no message in flight and no operation can issue, but scripts are unfinished: "+w.pendingOps(), path)
			return
		}
		for _, llc := range w.llcs {
			if err := w.chk.CheckQuiescent(llc); err != nil {
				x.report("quiescence", err.Error(), path)
				break
			}
		}
		return
	}

	ample := len(acts)
	if x.red.Ample {
		acts, ample = w.ampleOrder(acts)
	}
	var sleeps [][]actKey
	if x.red.Sleep {
		sleeps = w.childSleeps(acts, sleep)
	}

	rec, child := x.hashes[depth], x.record(depth+1)
	ent.onStack = true
	widen := false
	committed := false
	for i, a := range acts {
		if i >= ample && !widen {
			committed = true
			break
		}
		var childSleep []actKey
		if x.red.Sleep {
			if slices.Contains(sleep, a.key()) {
				x.res.SleepSkips++
				continue
			}
			childSleep = sleeps[i]
		}
		x.res.Transitions++
		key := x.key(rec, a)
		s, hit := x.memo[key]
		var childFp uint64
		if hit {
			childFp = x.enc.child(x.sc, child, rec, a, s)
		}
		if !hit || !x.pruned(childFp, childSleep) {
			// The first child that needs a world consumes w; later ones
			// reset the world and replay the prefix, yielding an identical
			// copy of this state. acts' messages are the world's pending
			// slots, so they were read (ampleOrder, childSleeps) before this.
			cw := w
			if cw == nil {
				cw = x.replay(path)
			}
			w = nil
			cw.apply(a.flat)
			if !hit {
				s = x.enc.transition(x.sc, cw, rec, a)
				x.memo[key] = s
				childFp = x.enc.child(x.sc, child, rec, a, s)
			}
			x.path = append(x.path[:depth], a.flat)
			x.dfs(cw, childFp, depth+1, childSleep)
			if x.stop {
				ent.onStack = false
				return
			}
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
}
