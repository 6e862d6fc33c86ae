package core

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"spandex/internal/memaddr"
	"spandex/internal/proto"
)

// stateLabel returns the canonical label of a line's current LLC state —
// the vocabulary shared with the static transition graph
// (docs/transitions/core.json). Base states: I (line absent), F (present
// but data still fetching), V (valid, no sharers or owners), S (Shared),
// O (some words Owned), SO (Shared with owned words, the transient of a
// blocking ReqS(1) revocation). While a blocking transaction holds the
// line, the transaction kind is appended: e.g. "S+inv", "O+rvk",
// "I+fetch".
func (l *LLC) stateLabel(line memaddr.LineAddr) string {
	base := "I"
	if e := l.array.Peek(line); e != nil {
		st := &e.State
		switch {
		case st.fetching:
			base = "F"
		case st.shared && st.ownedMask != 0:
			base = "SO"
		case st.shared:
			base = "S"
		case st.ownedMask != 0:
			base = "O"
		default:
			base = "V"
		}
	}
	if t, ok := l.txns[line]; ok {
		base += "+" + t.kind.String()
	}
	return base
}

// TransitionKey is one dynamically observed (LLC state, incoming message)
// pair.
type TransitionKey struct {
	State string
	Msg   string
}

// TransitionCoverage counts the (state, message) pairs the LLC actually
// processed during a run. It is the dynamic half of the transition-graph
// cross-check: pairs recorded here but absent from the statically
// extracted graph indicate an extraction bug; static transitions never
// recorded are coverage gaps.
type TransitionCoverage struct {
	counts map[TransitionKey]uint64
}

// NewTransitionCoverage returns an empty recorder.
func NewTransitionCoverage() *TransitionCoverage {
	return &TransitionCoverage{counts: make(map[TransitionKey]uint64)}
}

// Reset forgets every recorded pair.
func (tc *TransitionCoverage) Reset() { clear(tc.counts) }

// Record notes one processed (state, message) pair.
func (tc *TransitionCoverage) Record(state string, msg proto.MsgType) {
	tc.counts[TransitionKey{State: state, Msg: msg.Ident()}]++
}

// Merge folds another recorder's counts into tc.
func (tc *TransitionCoverage) Merge(o *TransitionCoverage) {
	if o == nil {
		return
	}
	for k, n := range o.counts {
		tc.counts[k] += n
	}
}

// Snapshot flattens the counts into a "State|Msg" → count map, the
// serialization format of coverage files (the -coverage-out files of
// spandex-bench, spandex-mcheck and spandex-fuzz) consumed by
// spandex-graph -diff.
func (tc *TransitionCoverage) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(tc.counts))
	for k, n := range tc.counts {
		out[k.State+"|"+k.Msg] = n
	}
	return out
}

// WriteFile writes the Snapshot as a coverage file: two-space-indented
// JSON (keys sorted) plus a trailing newline.
func (tc *TransitionCoverage) WriteFile(path string) error {
	data, err := json.MarshalIndent(tc.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("coverage: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadCoverage reads coverage files and sums their counts into one
// Snapshot-format map. Keys are kept verbatim, malformed ones included,
// so the cross-check can report them.
func ReadCoverage(paths ...string) (map[string]uint64, error) {
	observed := make(map[string]uint64)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var snap map[string]uint64
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		for k, n := range snap {
			observed[k] += n
		}
	}
	return observed, nil
}

// AddSnapshot folds a Snapshot-format map back into the recorder.
func (tc *TransitionCoverage) AddSnapshot(s map[string]uint64) {
	//spandex:maprange commutative keyed accumulation: += into counts keyed by the loop key
	for k, n := range s {
		for i := 0; i < len(k); i++ {
			if k[i] == '|' {
				tc.counts[TransitionKey{State: k[:i], Msg: k[i+1:]}] += n
				break
			}
		}
	}
}

// Keys returns the observed pairs in deterministic (state, msg) order.
func (tc *TransitionCoverage) Keys() []TransitionKey {
	keys := make([]TransitionKey, 0, len(tc.counts))
	//spandex:maprange order normalized by the sort below
	for k := range tc.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].State != keys[j].State {
			return keys[i].State < keys[j].State
		}
		return keys[i].Msg < keys[j].Msg
	})
	return keys
}

// Count returns the number of times a pair was observed.
func (tc *TransitionCoverage) Count(k TransitionKey) uint64 { return tc.counts[k] }

// SetCoverage installs a transition-coverage recorder on the LLC; nil
// disables recording.
func (l *LLC) SetCoverage(tc *TransitionCoverage) { l.coverage = tc }

// observe records the (pre-state, message) pair the LLC is about to
// process — for the dynamic coverage cross-check — and primes the
// checker's violation context with it, so any invariant broken while
// handling this message reports the cycle/line/state/msg that broke it.
func (l *LLC) observe(m *proto.Message) {
	if l.coverage == nil && l.checker == nil {
		return
	}
	st := l.stateLabel(m.Line)
	if l.checker != nil {
		l.checker.SetContext(l.eng.Now(), m.Line, st, m.Type.Ident())
	}
	if l.coverage != nil {
		l.coverage.Record(st, m.Type)
	}
}
