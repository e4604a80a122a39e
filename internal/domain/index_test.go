package domain

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// indexRef is the map an idIndex must agree with: per tag (a hash's
// high half and the role), the IDs inserted under it, in insertion
// order. A lookup yields exactly its tag's IDs; the caller tells the
// hashes apart by comparing the nodes the IDs name.
type indexRef map[uint32][]int32

func (ref indexRef) insert(x *idIndex, h uint64, role uint32, id int32) {
	x.insert(h, role, id)
	tag := indexTag(h, role)
	ref[tag] = append(ref[tag], id)
}

// candidates collects every ID a lookup of (h, role) yields.
func (x *idIndex) candidates(h uint64, role uint32) []int32 {
	var out []int32
	for pr := x.lookup(h, role); ; {
		id, ok := pr.next()
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

// randomHash draws its high half from a small pool, so distinct hashes
// often share a tag and a home slot, and half the time reuses a hash
// already drawn, so one hash holds several IDs.
func randomHash(r *rand.Rand, drawn []uint64) uint64 {
	if len(drawn) > 0 && r.Intn(2) == 0 {
		return drawn[r.Intn(len(drawn))]
	}
	return uint64(r.Intn(1024))<<34 | uint64(r.Uint32())
}

func checkIndex(t *testing.T, x *idIndex, ref indexRef, drawn []uint64) {
	t.Helper()
	for _, h := range drawn {
		for role := roleTerm; role <= roleWhole; role++ {
			got, want := x.candidates(h, role), ref[indexTag(h, role)]
			if !slices.Equal(got, want) {
				t.Fatalf("lookup of %#x role %d yields %v, want %v", h, role, got, want)
			}
		}
	}
}

// TestIDIndexMatchesMap inserts random IDs under colliding hashes and
// all three roles, growing the table from empty, and holds every lookup
// to a map of slices.
func TestIDIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var x idIndex
	ref := indexRef{}
	var drawn []uint64
	for i := 0; i < 6000; i++ {
		h := randomHash(r, drawn)
		drawn = append(drawn, h)
		ref.insert(&x, h, uint32(r.Intn(3)), int32(r.Intn(1<<20)))
		if i < 200 || i%1000 == 0 {
			checkIndex(t, &x, ref, drawn[max(0, len(drawn)-50):])
		}
	}
	checkIndex(t, &x, ref, drawn)
	if x.n != 6000 || len(x.slots) < 2*x.n {
		t.Fatalf("%d entries in %d slots, want at most half full", x.n, len(x.slots))
	}
	if got := x.candidates(1<<63, roleTerm); got != nil {
		t.Fatalf("lookup of a hash never inserted yields %v", got)
	}
}

// TestIDIndexCloneIndependent: inserts into a clone or its original do
// not show in the other, and clones of one index grow concurrently
// (go test -race) without a write to the shared original.
func TestIDIndexCloneIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var x idIndex
	ref := indexRef{}
	var drawn []uint64
	for i := 0; i < 300; i++ {
		h := randomHash(r, drawn)
		drawn = append(drawn, h)
		ref.insert(&x, h, rolePattern, int32(i))
	}
	frozen := slices.Clone(x.slots)
	c := x.clone()
	cref := indexRef{}
	for k, v := range ref {
		cref[k] = slices.Clone(v)
	}
	ref.insert(&x, drawn[0], rolePattern, 1000)
	cref.insert(&c, drawn[0], rolePattern, 2000)
	checkIndex(t, &x, ref, drawn)
	checkIndex(t, &c, cref, drawn)

	x.slots, x.n = frozen, 300
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := x.clone()
			cref := indexRef{}
			var mine []uint64
			for i := 0; i < 2000; i++ {
				h := uint64(g)<<60 | uint64(i)<<34
				mine = append(mine, h)
				cref.insert(&c, h, roleTerm, int32(i))
			}
			for _, h := range mine {
				if got, want := c.candidates(h, roleTerm), cref[indexTag(h, roleTerm)]; !slices.Equal(got, want) {
					t.Errorf("clone %d: lookup of %#x yields %v, want %v", g, h, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(x.slots, frozen) {
		t.Fatal("the original changed under its clones")
	}
}
