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
	// the explorer's world processes — walking a transition the memo does
	// not know, or catching up along a prefix — for the transition-graph
	// cross-check. A transition the memo knows is not run and so not
	// counted again, but the same pair was recorded when the memo learned
	// it: the set of pairs is that of every transition explored, and only
	// per-pair counts depend on how often the world ran it.
	Coverage *core.TransitionCoverage
	// Reduction selects the reductions applied; nil means FullReduction.
	Reduction *Reduction
}

// Violation is one property failure, with the interleaving that reaches it.
type Violation struct {
	// Kind is "invariant" (core.Checker), "data" (out-of-thin-air load),
	// "deadlock" (quiescent with unfinished operations, or an operation the
	// L1 rejects for ever), or "quiescence" (terminal-state ownership
	// audit).
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
	// counts the catch-up actions: those the world re-applied to reach the
	// state a walk or a terminal audit starts from. They are the two costs
	// of a transition, exact on any host, so a change to either shows as a
	// count.
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
	// w is the exploration's one world, and applied the actions it has
	// applied since its last reset. The DFS expands states from their
	// records and moves the world only to run a transition the memo does
	// not know or to audit a terminal state (moveTo).
	w       *world
	applied []int
	// frames holds the state on the DFS path at each depth, its hashing
	// record and its expansion scratch, and path the actions leading to
	// it; a child's record reuses its parent's.
	frames []*frame
	path   []int
	// memo holds every transition walked in this exploration, by acting
	// unit, that unit's section hash before the action, and the action. A
	// unit's next step depends only on its section and the action
	// (reduce.go), so a later occurrence of a transition predicts the
	// child's record without a world.
	memo    map[memoKey]step
	visited map[uint64]*visitEntry
	// entries and keys are the blocks visited entries and their sleep
	// sets are kept in.
	entries  []visitEntry
	keys     []actKey
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
		k.msg = x.sc.msg(f, a).h
	}
	return k
}

// Explore enumerates the scenario's reachable states via depth-first
// search over delivery/issue interleavings. Distinct states are detected
// with a canonical structural hash and expanded once, from the state's
// hashing record: its enabled actions, ample group and sleep sets are
// computed from the unit facts and message fields the record keeps.
// Exploration is memo-driven: every transition walked is kept, so a later
// occurrence of it predicts the child's record without running it. One
// world serves the whole exploration, and follows the search lazily: it
// runs a transition only when the memo does not know it, and audits a
// terminal state. To get there it applies the missing actions when the
// target path extends the ones it has applied since its last reset, and
// otherwise resets to the initial state and re-applies the path (a reset
// world is exactly a fresh one, and the system is deterministic), so no
// state snapshotting is needed. A walked transition's violations are
// checked as soon as it runs, so a transition the memo knows is
// violation-free. Under the default FullReduction the search additionally
// merges states that differ only in the send order of different FIFOs and
// prunes provably redundant interleavings (see Reduction); exploration
// remains exhaustive up to those equivalences, and stops at the first
// violation, which carries its full interleaving trace.
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

// newExplorer returns an explorer with its own scene, world and encoder,
// an empty memo and an empty visited set.
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

// run explores from the scenario's initial state, in which the world
// must be.
func (x *explorer) run() {
	x.dfs(x.enc.root(x.sc, x.w, &x.frame(0).rec), 0, nil)
	x.res.Complete = !x.limitHit && x.res.Violation == nil
	x.res.WalkedBytes = x.enc.walked
}

// frame returns the DFS frame at depth.
func (x *explorer) frame(depth int) *frame {
	for len(x.frames) <= depth {
		x.frames = append(x.frames, &frame{})
	}
	return x.frames[depth]
}

// moveTo brings the world to the state at the end of path and returns
// it. When path extends the actions the world has applied since its last
// reset, it applies only the missing ones; otherwise it resets the world
// to the initial state and re-applies path. Either way it counts what it
// applies as catch-up actions.
func (x *explorer) moveTo(path []int) *world {
	n := len(x.applied)
	if n > len(path) || !slices.Equal(x.applied, path[:n]) {
		x.w.reset()
		x.applied, n = x.applied[:0], 0
	}
	for _, a := range path[n:] {
		x.w.apply(a)
	}
	x.applied = append(x.applied, path[n:]...)
	x.res.ReplayedActions += len(path) - n
	return x.w
}

// walk runs action a, enabled at the state of record rec at the end of
// path, on the world and returns its transition as the hash sees it. It
// checks the violations a raised as soon as it runs, so that every
// transition the memo learns is violation-free: a violation is reported,
// and ok is false.
func (x *explorer) walk(path []int, rec *stateHash, a action) (s step, ok bool) {
	w := x.moveTo(path)
	w.apply(a.flat)
	x.applied = append(x.applied, a.flat)
	if kind, detail, bad := w.violation(); bad {
		x.report(kind, detail, slices.Clone(x.applied))
		return step{}, false
	}
	return x.enc.transition(x.sc, w, rec, a), true
}

// stuck reports whether issue a, whose transition from the state of
// record rec is s, leaves the L1's rejection standing for good: the L1
// rejects it (the script cursor stays), sends nothing, no message is in
// flight and every other device is finished, so nothing remains that
// could free the controller's resources. Whether the L1 rejects depends
// on the device's section alone, which is why a memoized s says so too.
func (x *explorer) stuck(rec *stateHash, a action, s step) bool {
	if !a.issue || len(rec.msgs) != 0 || len(s.sent) != 0 {
		return false
	}
	if s.sec.f.next != x.sc.device(rec, int(a.unit)).next {
		return false
	}
	for i := range x.sc.ndev {
		if i != int(a.unit) && !x.sc.device(rec, i).finished {
			return false
		}
	}
	return true
}

// reportStuck reports issue a, at the state of record rec at the end of
// path, as rejected for good.
func (x *explorer) reportStuck(path []int, rec *stateHash, a action) {
	x.report("deadlock", fmt.Sprintf("%s: op %d permanently rejected by quiescent L1",
		x.sc.names[a.unit], x.sc.device(rec, int(a.unit)).next), append(path[:len(path):len(path)], a.flat))
}

func (x *explorer) report(kind, detail string, path []int) {
	x.res.Violation = &Violation{Kind: kind, Detail: detail, Trace: x.trace(path)}
	x.stop = true
}

// trace renders the actions of path, from the scene's initial state, as
// trace lines. It is one more replay of the world, the only one that
// formats actions. It records no coverage: the exploration, which a
// violation ends, already has.
func (x *explorer) trace(path []int) []string {
	for _, llc := range x.w.llcs {
		llc.SetCoverage(nil)
	}
	lines := make([]string, len(path))
	x.w.reset()
	for i, a := range path {
		lines[i] = x.w.describe(a)
	}
	x.applied = append(x.applied[:0], path...)
	return lines
}

// pruned reports whether the state of hash fp, reached under sleep, needs
// no expansion: it was explored before under a sleep set that skipped
// nothing sleep does not skip too.
func (x *explorer) pruned(fp uint64, sleep []actKey) bool {
	ent, seen := x.visited[fp]
	return seen && (!x.red.Sleep || subsetOf(ent.sleep, sleep))
}

// enter records the first visit of the state of hash fp, under sleep. The
// entry keeps a copy of sleep: a frame's sleep sets are its scratch, which
// the next state expanded at its depth overwrites.
func (x *explorer) enter(fp uint64, sleep []actKey) *visitEntry {
	ent := &carve(&x.entries, 1)[0]
	ent.sleep = carve(&x.keys, len(sleep))
	copy(ent.sleep, sleep)
	x.visited[fp] = ent
	return ent
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
// whose hashing record x.frames[depth].rec hashes to fp, under the given
// sleep set (action keys in real device coordinates that need not be
// explored from here: every state they lead to is covered by an
// already-explored sibling). It expands the state from its record; the
// world moves only for a transition the memo does not know (walk) and for
// a terminal state's audit.
func (x *explorer) dfs(fp uint64, depth int, sleep []actKey) {
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
		ent = x.enter(fp, sleep)
		x.res.States++
		if depth > x.res.MaxDepth {
			x.res.MaxDepth = depth
		}
		if x.res.States >= x.cfg.MaxStates {
			x.limitHit = true
			x.stop = true
			return
		}
	}

	fr := x.frames[depth]
	rec := &fr.rec
	acts := fr.enabled(x.sc)
	if len(acts) == 0 {
		if !x.sc.terminal(rec) {
			x.report("deadlock",
				"no message in flight and no operation can issue, but scripts are unfinished: "+x.sc.pendingOps(rec), path)
			return
		}
		w := x.moveTo(path)
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
		ample = fr.ampleOrder(x.sc)
		acts = fr.acts
	}
	if x.red.Sleep {
		fr.childSleeps(x.sc, sleep)
	}

	child := &x.frame(depth + 1).rec
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
				// An asleep issue's device has not changed since the issue
				// was explored, so the memo knows it: a rejection that
				// stands for good is caught here too.
				if s, ok := x.memo[x.key(rec, a)]; ok && x.stuck(rec, a, s) {
					x.reportStuck(path, rec, a)
					ent.onStack = false
					return
				}
				continue
			}
			childSleep = fr.sleeps[i]
		}
		x.res.Transitions++
		key := x.key(rec, a)
		s, hit := x.memo[key]
		if !hit {
			var ok bool
			if s, ok = x.walk(path, rec, a); !ok {
				ent.onStack = false
				return
			}
			x.memo[key] = s
		}
		if x.stuck(rec, a, s) {
			x.reportStuck(path, rec, a)
			ent.onStack = false
			return
		}
		childFp := x.enc.child(x.sc, child, rec, a, s)
		if !x.pruned(childFp, childSleep) {
			x.path = append(x.path[:depth], a.flat)
			x.dfs(childFp, depth+1, childSleep)
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

// terminal reports whether the state of record f is quiescent with all
// scripts done.
func (sc *scene) terminal(f *stateHash) bool {
	if len(f.msgs) != 0 {
		return false
	}
	for i := range sc.ndev {
		if !sc.device(f, i).finished {
			return false
		}
	}
	return true
}

// pendingOps describes the unfinished scripts at the state of record f,
// for deadlock reports.
func (sc *scene) pendingOps(f *stateHash) string {
	s := ""
	for i := range sc.ndev {
		d := sc.device(f, i)
		if d.finished {
			continue
		}
		if s != "" {
			s += ", "
		}
		if d.inflight {
			s += fmt.Sprintf("%s op %d in flight", sc.names[i], d.next-1)
			continue
		}
		s += fmt.Sprintf("%s op %d ready", sc.names[i], d.next)
	}
	return s
}
