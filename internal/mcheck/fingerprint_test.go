package mcheck

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
)

// TestEncoderMatchesReference walks seeded random interleavings of every
// scenario (Heavy ones only without -short), with Canon off and on, and
// checks at every visited state that the compiled encoder writes exactly
// the reference walk's canonical bytes and hash — under Canon, for every
// renaming in the scenario's symmetry group. One encoder serves each
// scenario and mode, as one serves each explorer, so plan caching and
// scratch reuse across calls are exercised too.
//
// -short (the -race lane) takes one walk per scenario and mode instead of
// two: fan6's 120 renamings per state make the reference walk most of
// this test's cost, ~100 s for two walks under the race detector.
func TestEncoderMatchesReference(t *testing.T) {
	walks := 2
	if testing.Short() {
		walks = 1
	}
	rng := rand.New(rand.NewSource(1))
	for _, p := range Pairings() {
		for _, scn := range Scenarios(p) {
			if testing.Short() && scn.Heavy {
				continue
			}
			for _, canon := range []bool{false, true} {
				enc := newEncoder()
				states := 0
				for walk := 0; walk < walks; walk++ {
					w := newWorld(scn, nil, Reduction{Canon: canon})
					for {
						states++
						if !matchesReference(t, enc, w) {
							t.Fatalf("%s/%s canon=%v: encoder diverged after %d actions:\n  %s",
								p, scn.Name, canon, len(w.trace), traceLines(&Violation{Trace: w.trace}))
						}
						acts := w.enumActions()
						if _, _, bad := w.violation(); bad || len(acts) == 0 {
							break
						}
						w.apply(acts[rng.Intn(len(acts))].flat)
					}
				}
				t.Logf("%s/%s canon=%v: %d states match", p, scn.Name, canon, states)
			}
		}
	}
}

// matchesReference compares the encoder against the reference walk on w's
// current state, reporting the first differing byte on a mismatch.
func matchesReference(t *testing.T, enc *encoder, w *world) bool {
	t.Helper()
	check := func(what string, got uint64, ref []byte) bool {
		if want := refFNV(ref); got != want || !bytes.Equal(enc.buf, ref) {
			i := 0
			for i < len(ref) && i < len(enc.buf) && ref[i] == enc.buf[i] {
				i++
			}
			t.Errorf("%s: hash %016x, reference %016x; bytes differ at %d:\n  got  …%s\n  want …%s",
				what, got, want, i, excerpt(enc.buf, i), excerpt(ref, i))
			return false
		}
		return true
	}
	if !w.red.Canon {
		roots := make([]interface{}, 0, 2+len(w.llcs)+len(w.devs))
		for _, llc := range w.llcs {
			roots = append(roots, llc)
		}
		roots = append(roots, w.mem, w.pending)
		for _, d := range w.devs {
			roots = append(roots, d)
		}
		return check("flat", enc.flatHash(w), refStructuralBytes(roots...))
	}
	for pi := range w.perms {
		got := enc.canonHash(w, w.perms[pi], w.invs[pi])
		if !check("renaming "+strconv.Itoa(pi), got, refHashWithPermBytes(w, w.perms[pi], w.invs[pi])) {
			return false
		}
	}
	return true
}

func excerpt(b []byte, at int) string {
	lo, hi := max(at-40, 0), min(at+40, len(b))
	return string(b[lo:hi])
}

// TestFoldMatchesFNVAdd checks the one-multiply fold against folding each
// byte as a zero-extended word with the 8-round stats.FNVAdd.
func TestFoldMatchesFNVAdd(t *testing.T) {
	p8 := uint64(1)
	for i := 0; i < 8; i++ {
		p8 *= 1099511628211
	}
	if p8 != fnvPrime8 {
		t.Fatalf("fnvPrime8 = %#x, want the FNV prime to the 8th, %#x", uint64(fnvPrime8), p8)
	}
	long := make([]byte, 4099)
	for i := range long {
		long[i] = byte(i*131 + i>>8)
	}
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"0x00", []byte{0x00}},
		{"0xff", []byte{0xff}},
		{"long", long},
	} {
		if got, want := fold(tc.in), refFNV(tc.in); got != want {
			t.Errorf("%s: fold = %016x, FNVAdd per byte = %016x", tc.name, got, want)
		}
	}
}
