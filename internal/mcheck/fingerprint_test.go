package mcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spandex/internal/stats"
)

// TestEncoderMatchesReference walks two seeded random interleavings of
// every scenario (Heavy ones only without -short), with Canon off and on,
// and checks at every visited state that the hash the explorer computes
// writes exactly the reference walk's canonical bytes and hash. Each
// state is hashed from its parent's record twice: in the walked world, as
// a first DFS child is, and in a replayed copy of the parent, as its
// siblings are. One explorer's scene and encoder serve each scenario and
// mode, so plan caching and scratch reuse across calls are exercised too.
//
// It also checks the premise the reuse rests on, reduce.go's "one unit
// per action": after each action every root section other than the
// acting unit's and the pending pool's is byte-identical to before.
func TestEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range Pairings() {
		for _, scn := range Scenarios(p) {
			if testing.Short() && scn.Heavy {
				continue
			}
			for _, canon := range []bool{false, true} {
				x := newExplorer(Config{Scenario: scn}, Reduction{Canon: canon})
				sc, enc := x.sc, x.enc
				states := 0
				for walk := 0; walk < 2; walk++ {
					w := newWorld(sc, nil)
					var path []int
					var parent *stateHash
					unit := int8(-1)
					for {
						states++
						fail := func(format string, args ...any) {
							t.Fatalf("%s/%s canon=%v after %d actions: %s\n  %s", p, scn.Name, canon, len(path),
								fmt.Sprintf(format, args...), strings.Join(sc.trace(path), "\n  "))
						}
						ref := refCanonicalBytes(w)
						cur := &stateHash{}
						fp := enc.hash(w, cur, parent, unit)
						if err := matchesReference(cur, fp, ref); err != nil {
							fail("in place: %v", err)
						}
						if parent != nil {
							sib := x.replay(path[:len(path)-1])
							sib.apply(path[len(path)-1])
							h := &stateHash{}
							fp := enc.hash(sib, h, parent, unit)
							if err := matchesReference(h, fp, ref); err != nil {
								fail("from a replayed parent: %v", err)
							}
						}

						acts := w.enumActions()
						if _, _, bad := w.violation(); bad || len(acts) == 0 {
							break
						}
						a := acts[rng.Intn(len(acts))]
						before := sectionContents(enc, w)
						w.apply(a.flat)
						after := sectionContents(enc, w)
						touched := sectionOf(a.unit, len(w.devs), len(w.llcs))
						for pos := range before {
							if pos != touched && pos != len(w.llcs)+1 && !bytes.Equal(before[pos], after[pos]) {
								fail("an action of unit %d changed root section %d:\n  before %s\n  after  %s",
									a.unit, pos, before[pos], after[pos])
							}
						}
						path = append(path, a.flat)
						parent, unit = cur, a.unit
					}
				}
				t.Logf("%s/%s canon=%v: %d states match", p, scn.Name, canon, states)
			}
		}
	}
}

// TestHashRejectsPointerSharedBySections checks the guard under section
// reuse: a pointer reachable from two root sections would make one
// section's bytes depend on another's, so hashing must stop on it rather
// than write bytes a full walk would not.
func TestHashRejectsPointerSharedBySections(t *testing.T) {
	scn, err := ScenarioByName(Pairing{CPU: ProtoMESI, GPU: ProtoGPU}, "mp")
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(newScene(scn, FullReduction()), nil)
	w.devs[1].l1 = w.devs[0].l1
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "two root sections") {
			t.Fatalf("hash did not stop on an L1 reachable from two device sections (recovered %v)", r)
		}
	}()
	newEncoder().hash(w, &stateHash{}, nil, -1)
}

// matchesReference compares the record h that hash wrote, and the hash
// fp it returned, against the reference string, reporting the first
// differing byte on a mismatch.
func matchesReference(h *stateHash, fp uint64, ref []byte) error {
	var got []byte
	for _, s := range h.secs {
		got = append(got, s.b...)
	}
	want := refFNV(ref)
	if last := h.folds[len(h.folds)-1]; last != fp || fp != want || !bytes.Equal(got, ref) {
		i := 0
		for i < len(ref) && i < len(got) && ref[i] == got[i] {
			i++
		}
		return fmt.Errorf("hash %016x (last fold %016x), reference %016x; bytes differ at %d:\n  got  …%s\n  want …%s",
			fp, last, want, i, excerpt(got, i), excerpt(ref, i))
	}
	return nil
}

// sectionContents walks each root section of w alone, numbering its
// pointers from 0, so that a section's bytes depend on its own unit's
// state only.
func sectionContents(enc *encoder, w *world) [][]byte {
	var out [][]byte
	for pos := 0; pos < len(w.llcs)+2+len(w.devs); pos++ {
		clear(enc.visited)
		enc.buf, enc.next, enc.secBase = nil, 0, 0
		enc.section(w, pos)
		out = append(out, enc.buf)
	}
	return out
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
		if got, want := fold(stats.FNVOffset(), tc.in), refFNV(tc.in); got != want {
			t.Errorf("%s: fold = %016x, FNVAdd per byte = %016x", tc.name, got, want)
		}
	}
}
