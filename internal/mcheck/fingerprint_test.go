package mcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spandex/internal/stats"
)

// TestEncoderMatchesReference walks seeded random interleavings of every
// scenario (Heavy ones only without -short), with Canon off and on, and
// checks at every visited state that the hash the explorer computes
// writes exactly the reference walk's canonical bytes and hash, under
// every renaming in the scene, and picks the same winning renaming. Each
// state is hashed from its parent's record twice: in the walked world, as
// a first DFS child is, and in a replayed copy of the parent, as its
// siblings are. One explorer's scene and encoder serve each scenario and
// mode, so plan caching and scratch reuse across calls are exercised too.
//
// It also checks the premise the reuse rests on, reduce.go's "one unit
// per action": after each action every root section other than the
// acting unit's and the pending pool's is byte-identical to before.
//
// -short (the -race lane) takes one walk per scenario and mode instead of
// two: fan6's 120 renamings per state make the reference walk most of
// this test's cost.
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
				x := newExplorer(Config{Scenario: scn}, Reduction{Canon: canon})
				sc, enc := x.sc, x.enc
				states := 0
				for walk := 0; walk < walks; walk++ {
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
						ref := referenceStrings(w)
						cur := &stateHash{}
						fp, perm := enc.hash(w, cur, parent, unit)
						if err := matchesReference(cur, fp, perm, ref); err != nil {
							fail("in place: %v", err)
						}
						if parent != nil {
							sib := x.replay(path[:len(path)-1])
							sib.apply(path[len(path)-1])
							h := &stateHash{}
							fp, perm := enc.hash(sib, h, parent, unit)
							if err := matchesReference(h, fp, perm, ref); err != nil {
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
						touched := sectionOf(a.unit, len(w.devs), len(w.llcs), nil)
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

// referenceStrings returns the reference walk's canonical string of w
// under each of the scene's renamings.
func referenceStrings(w *world) [][]byte {
	if !w.sc.canon {
		roots := make([]interface{}, 0, 2+len(w.llcs)+len(w.devs))
		for _, llc := range w.llcs {
			roots = append(roots, llc)
		}
		roots = append(roots, w.mem, w.pending)
		for _, d := range w.devs {
			roots = append(roots, d)
		}
		return [][]byte{refStructuralBytes(roots...)}
	}
	var out [][]byte
	for k := range w.sc.perms {
		out = append(out, refHashWithPermBytes(w, w.sc.perms[k], w.sc.invs[k]))
	}
	return out
}

// matchesReference compares the record h that hash wrote, and the hash
// fp and renaming perm it returned, against the reference strings,
// reporting the first differing byte on a mismatch.
func matchesReference(h *stateHash, fp uint64, perm int, ref [][]byte) error {
	want, wantPerm := uint64(0), 0
	for k, r := range ref {
		var got []byte
		for _, s := range h.strs[k].secs {
			got = append(got, s.b...)
		}
		folds := h.strs[k].folds
		hk, wk := folds[len(folds)-1], refFNV(r)
		if hk != wk || !bytes.Equal(got, r) {
			i := 0
			for i < len(r) && i < len(got) && r[i] == got[i] {
				i++
			}
			return fmt.Errorf("renaming %d: hash %016x, reference %016x; bytes differ at %d:\n  got  …%s\n  want …%s",
				k, hk, wk, i, excerpt(got, i), excerpt(r, i))
		}
		if k == 0 || wk < want {
			want, wantPerm = wk, k
		}
	}
	if fp != want || perm != wantPerm {
		return fmt.Errorf("hash %016x under renaming %d, reference %016x under %d", fp, perm, want, wantPerm)
	}
	return nil
}

// sectionContents walks each root section of w alone, renaming nothing
// and numbering its pointers from 0, so that a section's bytes depend on
// its own unit's state only.
func sectionContents(enc *encoder, w *world) [][]byte {
	var out [][]byte
	for pos := 0; pos < len(w.llcs)+2+len(w.devs); pos++ {
		clear(enc.visited)
		enc.buf, enc.idmap, enc.next, enc.secBase = nil, nil, 0, 0
		enc.section(w, pos, nil)
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
