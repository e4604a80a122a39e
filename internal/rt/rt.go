// Package rt provides the shared runtime representation of WAM machines:
// tagged cells, the heap, and the (value-)trail. Both the concrete machine
// (internal/machine) and the abstract machine (internal/core) build on it.
//
// Cells follow the standard WAM tagging scheme (REF/STR/FUN/LIS/CON/INT)
// extended with tags for the "open" abstract types of the paper's domain
// (Section 3): any, nv, ground, const, atom, integer and parameterized
// lists. Open abstract cells behave like variables — they occupy one
// mutable heap word and may be overwritten (instantiated) by abstract
// unification, which is why the trail records previous cell values rather
// than just addresses.
package rt

import (
	"fmt"

	"awam/internal/term"
)

// Tag discriminates heap cell contents.
type Tag uint8

const (
	// Ref is a variable reference. An unbound variable points at itself
	// (A == its own address).
	Ref Tag = iota
	// Str points at the functor cell of a structure.
	Str
	// Fun is a functor cell (F holds name/arity); its arguments follow.
	Fun
	// Lis points at the first cell of a cons pair.
	Lis
	// Con is an atomic constant (F.Name, arity 0).
	Con
	// Int is an integer constant (I).
	Int

	// Abstract tags. These never appear in the concrete machine.

	// AAny is the abstract type 'any' (top).
	AAny
	// ANV is the abstract type 'nv' (all non-variable terms).
	ANV
	// AGround is the abstract type 'ground'.
	AGround
	// AConst is the abstract type 'const' (atoms and integers).
	AConst
	// AAtom is the abstract type 'atom' (all atoms).
	AAtom
	// AInt is the abstract type 'integer' (all integers).
	AInt
	// AList is a parameterized list type; A points at the heap cell
	// holding the element type.
	AList
	// AVar is the abstract type 'var' (definitely-unbound variables) as a
	// leaf materialized from a pattern. Fresh unbound Ref cells play the
	// same role inside the machine; AVar only appears when a pattern
	// distinguishes "var" from "any" across a call boundary.
	AVar
)

// IsAbstract reports whether the tag is one of the abstract-domain tags.
func (t Tag) IsAbstract() bool { return t >= AAny }

// IsOpen reports whether a cell with this tag can be further instantiated
// by abstract unification (and therefore must be trailed when bound).
func (t Tag) IsOpen() bool {
	switch t {
	case Ref, AAny, ANV, AGround, AConst, AList, AVar:
		return true
	}
	return false
}

func (t Tag) String() string {
	switch t {
	case Ref:
		return "REF"
	case Str:
		return "STR"
	case Fun:
		return "FUN"
	case Lis:
		return "LIS"
	case Con:
		return "CON"
	case Int:
		return "INT"
	case AAny:
		return "any"
	case ANV:
		return "nv"
	case AGround:
		return "ground"
	case AConst:
		return "const"
	case AAtom:
		return "atom"
	case AInt:
		return "integer"
	case AList:
		return "list"
	case AVar:
		return "var"
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// Cell is one tagged heap word (with room for every variant's payload).
type Cell struct {
	Tag Tag
	A   int          // address payload (Ref/Str/Lis/AList)
	F   term.Functor // functor payload (Fun/Con)
	I   int64        // integer payload (Int)
}

// MkRef returns a reference cell to addr.
func MkRef(addr int) Cell { return Cell{Tag: Ref, A: addr} }

// MkCon returns an atomic-constant cell.
func MkCon(a term.Atom) Cell { return Cell{Tag: Con, F: term.Functor{Name: a}} }

// MkInt returns an integer cell.
func MkInt(n int64) Cell { return Cell{Tag: Int, I: n} }

// TrailEntry records a cell overwrite so it can be undone on backtracking.
// The WAM's address-only trail suffices when the only bindable cells are
// self-referencing REFs; the abstract machine also binds open abstract
// cells, so we trail the old value.
type TrailEntry struct {
	Addr int
	Old  Cell
}

// Heap is a growable cell array with a value trail.
type Heap struct {
	Cells []Cell
	Trail []TrailEntry
	// high is the largest cell count ever reached. The heap only shrinks
	// at Undo/Reset, so refreshing the mark there (and in HighWater)
	// observes every peak without a check in the hot Push path.
	high int
}

// NewHeap returns a heap with some initial capacity.
func NewHeap() *Heap {
	return &Heap{Cells: make([]Cell, 0, 1024), Trail: make([]TrailEntry, 0, 256)}
}

// Top returns the current heap top (the address the next Push will use).
func (h *Heap) Top() int { return len(h.Cells) }

// Reset empties the heap for reuse, keeping the allocated capacity —
// cheaper than a fresh heap for callers that run many short abstract
// executions (e.g. the fixpoint strategies, one reset per top-level
// exploration).
func (h *Heap) Reset() {
	if len(h.Cells) > h.high {
		h.high = len(h.Cells)
	}
	h.Cells = h.Cells[:0]
	h.Trail = h.Trail[:0]
}

// HighWater returns the largest cell count the heap ever held — the
// analysis working-set statistic reported by core metrics.
func (h *Heap) HighWater() int {
	if len(h.Cells) > h.high {
		h.high = len(h.Cells)
	}
	return h.high
}

// Push appends a cell and returns its address.
func (h *Heap) Push(c Cell) int {
	h.Cells = append(h.Cells, c)
	return len(h.Cells) - 1
}

// PushVar pushes a fresh unbound variable and returns its address.
func (h *Heap) PushVar() int {
	a := len(h.Cells)
	h.Cells = append(h.Cells, Cell{Tag: Ref, A: a})
	return a
}

// PushOpen pushes a fresh open abstract cell of the given tag. For AList
// the caller must have pushed/know the element cell address and pass it.
func (h *Heap) PushOpen(t Tag, elem int) int {
	a := len(h.Cells)
	h.Cells = append(h.Cells, Cell{Tag: t, A: elem})
	return a
}

// At returns the cell at addr.
func (h *Heap) At(addr int) Cell { return h.Cells[addr] }

// Deref follows REF chains from addr and returns the address of the final
// cell: either a non-REF cell or an unbound (self-referencing) REF.
func (h *Heap) Deref(addr int) int {
	for {
		c := h.Cells[addr]
		if c.Tag != Ref || c.A == addr {
			return addr
		}
		addr = c.A
	}
}

// DerefCell is Deref followed by At.
func (h *Heap) DerefCell(addr int) (int, Cell) {
	a := h.Deref(addr)
	return a, h.Cells[a]
}

// ResolveCell dereferences a register value: if c is a REF into the heap
// it is dereferenced; otherwise c stands for itself. It returns the final
// cell and, when the cell lives on the heap, its address (else -1).
func (h *Heap) ResolveCell(c Cell) (Cell, int) {
	if c.Tag == Ref {
		a := h.Deref(c.A)
		return h.Cells[a], a
	}
	return c, -1
}

// Bind overwrites the cell at addr with c, recording the old value on the
// trail. Callers must only bind open cells (unbound REFs or open abstract
// cells).
func (h *Heap) Bind(addr int, c Cell) {
	h.Trail = append(h.Trail, TrailEntry{Addr: addr, Old: h.Cells[addr]})
	h.Cells[addr] = c
}

// Mark captures the current heap and trail positions for later Undo.
type Mark struct {
	HeapTop  int
	TrailTop int
}

// Mark returns the current state marker.
func (h *Heap) Mark() Mark {
	return Mark{HeapTop: len(h.Cells), TrailTop: len(h.Trail)}
}

// Undo rolls back all bindings made since the mark and truncates the heap
// to its marked top.
func (h *Heap) Undo(m Mark) {
	if len(h.Cells) > h.high {
		h.high = len(h.Cells)
	}
	for i := len(h.Trail) - 1; i >= m.TrailTop; i-- {
		e := h.Trail[i]
		// Entries above the marked heap top vanish with the truncation.
		if e.Addr < m.HeapTop {
			h.Cells[e.Addr] = e.Old
		}
	}
	h.Trail = h.Trail[:m.TrailTop]
	h.Cells = h.Cells[:m.HeapTop]
}

// UndoTrailOnly rolls back bindings since the mark but keeps the heap top
// (used when applying a memoized success pattern after exploring clauses:
// exploration side effects are undone, then the pattern re-binds).
func (h *Heap) UndoTrailOnly(m Mark) {
	for i := len(h.Trail) - 1; i >= m.TrailTop; i-- {
		e := h.Trail[i]
		if e.Addr < len(h.Cells) {
			h.Cells[e.Addr] = e.Old
		}
	}
	h.Trail = h.Trail[:m.TrailTop]
}

// LoadTerm copies a source term onto the heap and returns the address of
// its root cell. Variables are allocated once per VarRef via env, so
// sharing in the source term becomes sharing on the heap.
func (h *Heap) LoadTerm(tab *term.Tab, tm *term.Term, env map[*term.VarRef]int) int {
	switch tm.Kind {
	case term.KVar:
		if a, ok := env[tm.Ref]; ok {
			return a
		}
		a := h.PushVar()
		env[tm.Ref] = a
		return a
	case term.KInt:
		return h.Push(MkInt(tm.Int))
	case term.KAtom:
		return h.Push(MkCon(tm.Fn.Name))
	case term.KStruct:
		if tm.Fn.Name == tab.Dot && tm.Fn.Arity == 2 {
			// Build args first, then the pair, to keep the pair adjacent.
			car := h.LoadTerm(tab, tm.Args[0], env)
			cdr := h.LoadTerm(tab, tm.Args[1], env)
			pair := h.Push(MkRef(car))
			h.Push(MkRef(cdr))
			return h.Push(Cell{Tag: Lis, A: pair})
		}
		args := make([]int, len(tm.Args))
		for i, a := range tm.Args {
			args[i] = h.LoadTerm(tab, a, env)
		}
		fn := h.Push(Cell{Tag: Fun, F: tm.Fn})
		for _, a := range args {
			h.Push(MkRef(a))
		}
		return h.Push(Cell{Tag: Str, A: fn})
	}
	panic("rt: unknown term kind")
}

// ReadTerm reconstructs a source term from the heap cell at addr. Unbound
// variables become fresh source variables (consistently per address via
// vars). Abstract cells are rendered as atoms naming their type, which is
// how analysis reports print partially-abstract structures. Cyclic terms
// are cut off with the atom '<cycle>'.
func (h *Heap) ReadTerm(tab *term.Tab, addr int, vars map[int]*term.Term) *term.Term {
	return h.readTerm(tab, addr, vars, make(map[int]bool))
}

// ReadCellTerm reconstructs a source term from a register cell, which
// may be a heap reference or a direct (possibly off-heap constant) cell.
func (h *Heap) ReadCellTerm(tab *term.Tab, c Cell, vars map[int]*term.Term) *term.Term {
	busy := make(map[int]bool)
	switch c.Tag {
	case Ref:
		return h.readTerm(tab, c.A, vars, busy)
	case Con:
		return term.MkAtom(c.F.Name)
	case Int:
		return term.MkInt(c.I)
	case Lis:
		car := h.readTerm(tab, c.A, vars, busy)
		cdr := h.readTerm(tab, c.A+1, vars, busy)
		return term.MkStruct(tab.ConsFunctor(), car, cdr)
	case Str:
		fn := h.Cells[c.A]
		args := make([]*term.Term, fn.F.Arity)
		for i := 0; i < fn.F.Arity; i++ {
			args[i] = h.readTerm(tab, c.A+1+i, vars, busy)
		}
		return term.MkStruct(fn.F, args...)
	default:
		return term.MkAtom(tab.Intern("$" + c.Tag.String()))
	}
}

func (h *Heap) readTerm(tab *term.Tab, addr int, vars map[int]*term.Term, busy map[int]bool) *term.Term {
	a, c := h.DerefCell(addr)
	if busy[a] {
		return term.MkAtom(tab.Intern("<cycle>"))
	}
	switch c.Tag {
	case Ref:
		if v, ok := vars[a]; ok {
			return v
		}
		v := term.NewVar(fmt.Sprintf("_%d", a))
		vars[a] = v
		return v
	case Con:
		return term.MkAtom(c.F.Name)
	case Int:
		return term.MkInt(c.I)
	case Lis:
		busy[a] = true
		car := h.readTerm(tab, c.A, vars, busy)
		cdr := h.readTerm(tab, c.A+1, vars, busy)
		delete(busy, a)
		return term.MkStruct(tab.ConsFunctor(), car, cdr)
	case Str:
		fn := h.Cells[c.A]
		args := make([]*term.Term, fn.F.Arity)
		busy[a] = true
		for i := 0; i < fn.F.Arity; i++ {
			args[i] = h.readTerm(tab, c.A+1+i, vars, busy)
		}
		delete(busy, a)
		return term.MkStruct(fn.F, args...)
	case AList:
		busy[a] = true
		elem := h.readTerm(tab, c.A, vars, busy)
		delete(busy, a)
		return term.MkStruct(tab.Func("$list", 1), elem)
	default:
		// Open or leaf abstract types print as $type atoms.
		return term.MkAtom(tab.Intern("$" + c.Tag.String()))
	}
}
