package domain

import "slices"

// idIndex is an open-addressed multimap from 64-bit hashes to IDs. It
// holds no pointers, so the collector never scans it, and a copy of it
// is one slice copy.
//
// Each slot packs a 32-bit tag over the ID plus one; a zero slot is
// empty. The tag is the hash's high half with its low two bits replaced
// by a role, so the interner's three uses of one index (term nodes,
// pattern nodes and whole-pattern hashes) never offer each other
// candidates. A tag's home slot is a function of the tag alone, which is
// what lets growth re-place the entries without their hashes. Entries
// are never removed, so a lookup walks from the home slot to the first
// empty slot and yields every ID whose tag matches, in insertion order.
// A matching tag makes an ID a candidate only: the caller compares the
// node it names. The zero value is an empty index.
type idIndex struct {
	slots []uint64
	n     int
}

// Index roles: which of the interner's ID spaces an entry belongs to.
const (
	roleTerm uint32 = iota
	rolePattern
	roleWhole
)

func indexTag(h uint64, role uint32) uint32 {
	return uint32(h>>32)&^3 | role
}

func (x *idIndex) home(tag uint32) int {
	return int(tag>>2) & (len(x.slots) - 1)
}

// probe is one lookup in progress.
type probe struct {
	x   *idIndex
	i   int
	tag uint32
}

// lookup starts a walk over the IDs inserted under (h, role).
func (x *idIndex) lookup(h uint64, role uint32) probe {
	tag := indexTag(h, role)
	if len(x.slots) == 0 {
		return probe{x: x, i: -1}
	}
	return probe{x: x, i: x.home(tag), tag: tag}
}

// next returns the walk's next candidate, or false when there is none.
func (p *probe) next() (int32, bool) {
	if p.i < 0 {
		return 0, false
	}
	slots := p.x.slots
	for {
		s := slots[p.i]
		if s == 0 {
			p.i = -1
			return 0, false
		}
		p.i = (p.i + 1) & (len(slots) - 1)
		if uint32(s>>32) == p.tag {
			return int32(uint32(s)) - 1, true
		}
	}
}

// insert adds id under (h, role). It keeps the table at most half full.
func (x *idIndex) insert(h uint64, role uint32, id int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	x.place(uint64(indexTag(h, role))<<32 | uint64(uint32(id)+1))
	x.n++
}

// place stores slot value s at the first empty slot from its home.
func (x *idIndex) place(s uint64) {
	i := x.home(uint32(s >> 32))
	for x.slots[i] != 0 {
		i = (i + 1) & (len(x.slots) - 1)
	}
	x.slots[i] = s
}

// grow doubles the table. It re-places the entries starting just past an
// empty slot, so no run of full slots that wraps the end is split, and
// entries under one tag keep their order.
func (x *idIndex) grow() {
	old := x.slots
	x.slots = make([]uint64, max(2*len(old), 64))
	start := 0
	for start < len(old) && old[start] != 0 {
		start++
	}
	for j := range old {
		if s := old[(start+j)%len(old)]; s != 0 {
			x.place(s)
		}
	}
}

// clone returns an independent copy.
func (x *idIndex) clone() idIndex {
	return idIndex{slots: slices.Clone(x.slots), n: x.n}
}
