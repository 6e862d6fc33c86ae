package mcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestEncoderMatchesReference walks two seeded random interleavings of
// every scenario (Heavy ones only without -short), with Canon off and on,
// and checks at every visited state that the hash the explorer computes
// writes exactly the reference walk's canonical bytes and that the state
// hash is the one built from the reference's sections. Each state is
// hashed from its parent's record twice: in the walked world, as a first
// DFS child is, and in a replayed copy of the parent, as its siblings
// are. One explorer's scene and encoder serve each scenario and mode, so
// plan caching and scratch reuse across calls are exercised too.
//
// It also checks the two premises the reuse rests on, each with every
// root section walked alone. Each section walked alone writes the bytes
// the record holds for it, so its bytes do not depend on the sections
// before it. And reduce.go's "one unit per action": after each action,
// every section other than the acting unit's and the pending pool's
// equals the parent's record. The test fails unless some state reuses a
// section holding a back-reference whose base in a whole-string walk
// moved, so the section-relative numbering is exercised.
func TestEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	moved := 0
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
					var parentRef []refSection
					unit := int8(-1)
					for {
						states++
						fail := func(format string, args ...any) {
							t.Fatalf("%s/%s canon=%v after %d actions: %s\n  %s", p, scn.Name, canon, len(path),
								fmt.Sprintf(format, args...), strings.Join(sc.trace(path), "\n  "))
						}
						alone := sectionContents(enc, w)
						touched, pending := sectionOf(unit, len(w.devs), len(w.llcs)), len(w.llcs)+1
						if parent != nil {
							for pos := range alone {
								if pos != touched && pos != pending && !bytes.Equal(alone[pos], parent.secs[pos].b) {
									fail("an action of unit %d changed root section %d:\n  before %s\n  after  %s",
										unit, pos, parent.secs[pos].b, alone[pos])
								}
							}
						}
						ref := refCanonicalBytes(w)
						cur := &stateHash{}
						fp := enc.hash(w, cur, parent, unit)
						if err := matchesReference(cur, fp, ref); err != nil {
							fail("in place: %v", err)
						}
						for pos := range alone {
							if !bytes.Equal(alone[pos], cur.secs[pos].b) {
								fail("root section %d walked alone differs from the record:\n  alone  %s\n  record %s",
									pos, alone[pos], cur.secs[pos].b)
							}
						}
						if parent != nil {
							sib := x.replay(path[:len(path)-1])
							sib.apply(path[len(path)-1])
							h := &stateHash{}
							fp := enc.hash(sib, h, parent, unit)
							if err := matchesReference(h, fp, ref); err != nil {
								fail("from a replayed parent: %v", err)
							}
							for pos := range ref {
								if pos != touched && pos != pending && ref[pos].backref && ref[pos].base != parentRef[pos].base {
									moved++
								}
							}
						}

						acts := w.enumActions()
						if _, _, bad := w.violation(); bad || len(acts) == 0 {
							break
						}
						a := acts[rng.Intn(len(acts))]
						w.apply(a.flat)
						path = append(path, a.flat)
						parent, parentRef, unit = cur, ref, a.unit
					}
				}
				t.Logf("%s/%s canon=%v: %d states match", p, scn.Name, canon, states)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no state reused a back-referencing section whose base moved; section-relative numbering went untested")
	}
	t.Logf("%d reused back-referencing sections sit at a moved base", moved)
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
// fp it returned, against the reference sections: the bytes must be the
// reference's, each stored section hash the hash of its bytes, and fp the
// state hash built from the reference's sections. A byte mismatch reports
// the first differing byte.
func matchesReference(h *stateHash, fp uint64, ref []refSection) error {
	var got, want []byte
	for _, s := range h.secs {
		got = append(got, s.b...)
	}
	var refSecs [][]byte
	for _, s := range ref {
		want = append(want, s.b...)
		refSecs = append(refSecs, s.b)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		return fmt.Errorf("bytes differ at %d:\n  got  …%s\n  want …%s", i, excerpt(got, i), excerpt(want, i))
	}
	for pos, s := range h.secs {
		if s.h != sectionHash(s.b) {
			return fmt.Errorf("section %d stores hash %016x, its bytes hash to %016x", pos, s.h, sectionHash(s.b))
		}
	}
	if want := recordOf(refSecs...).sum(); fp != want {
		return fmt.Errorf("hash %016x, reference %016x", fp, want)
	}
	return nil
}

// recordOf returns a hashing record holding the given sections, each
// with its hash.
func recordOf(secs ...[]byte) *stateHash {
	f := &stateHash{}
	for _, b := range secs {
		f.secs = append(f.secs, section{b: b, h: sectionHash(b)})
	}
	return f
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

// TestSectionHash checks the section hash and the state hash built from
// it: flipping any one bit of an input of 0–64 bytes changes the section
// hash, as does appending a zero byte, and swapping the contents of two
// sections changes the state hash.
func TestSectionHash(t *testing.T) {
	const text = "t<core.LLC>{lines=m1{u64:p{a[i3,]};};owner=p@0;}|"
	for _, fill := range []string{"zeros", "text"} {
		for n := 0; n <= 64; n++ {
			in := make([]byte, n)
			if fill == "text" {
				for i := range in {
					in[i] = text[i%len(text)]
				}
			}
			h := sectionHash(in)
			for i := range in {
				for bit := 0; bit < 8; bit++ {
					in[i] ^= 1 << bit
					if sectionHash(in) == h {
						t.Errorf("%s, length %d: flipping bit %d of byte %d left the hash at %016x", fill, n, bit, i, h)
					}
					in[i] ^= 1 << bit
				}
			}
			if sectionHash(append(in, 0)) == h {
				t.Errorf("%s, length %d: appending a zero byte left the hash at %016x", fill, n, h)
			}
		}
	}

	contents := [][]byte{[]byte("t<core.LLC>{st=u0;}|"), []byte("t<dram.Memory>{}|"), []byte("q0>2[]|"),
		[]byte("p{u1;}|"), []byte("p{u2;}|")}
	h := recordOf(contents...).sum()
	for i := range contents {
		for j := i + 1; j < len(contents); j++ {
			swapped := slices.Clone(contents)
			swapped[i], swapped[j] = swapped[j], swapped[i]
			if recordOf(swapped...).sum() == h {
				t.Errorf("swapping sections %d and %d left the state hash at %016x", i, j, h)
			}
		}
	}
}
