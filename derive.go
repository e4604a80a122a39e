package awam

import (
	"fmt"
	"sort"

	"awam/internal/compiler"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// loadedSource is a loaded System's source text, split into the clauses the
// reader found (parser.Chunk), with the module compiled from them.
type loadedSource struct {
	text   string
	chunks []parser.Chunk
	// mod is the module as compiled, before any optimization; nil for
	// the empty System Load derives from.
	mod *wam.Module
	// fresh is the size of the symbol table when the first System of
	// its lineage was loaded fresh.
	fresh int
}

// empty is the System Load derives from: no clauses, no code and a
// symbol table of its own.
func empty() *System {
	prog := &term.Program{Preds: make(map[term.Functor][]int)}
	return &System{tab: term.NewTab(), prog: prog, exp: prog, src: &loadedSource{}}
}

// Derive loads source, usually an edited version of the program s was
// loaded from, reusing what the edit did not touch. The result is the System
// Load(source) returns, byte for byte in its code, listings and
// analyses, and Derive fails with the error Load would report, with the
// same position; only the symbol table differs: the derived System
// shares s's, which only grows.
//
// Derive reads clauses again only from the first clause the edit
// touches, and only until the reader ends a clause at one of s's clause
// boundaries inside the unchanged end of the source; the clauses before
// and after are s's own clause objects. An edit that opens a block
// comment or a quote simply reads further. A predicate whose clauses
// are all s's objects keeps s's compiled code, relocated to its new
// address; the others compile again, as do predicates whose clauses
// hold ';', '->' or '\+', because the names of the auxiliary
// predicates those expand to are numbered program-wide.
//
// The derived System also builds its condensation, fingerprints and
// specialized program from s's, as far as s had built them: only the
// dirty cone, the changed predicates and the components that can reach
// them, is condensed, hashed and profiled again (derivation).
//
// A process that derives without end should load fresh once the shared
// table has grown enough (TableSize).
func (s *System) Derive(source string) (*System, error) {
	chunks, err := s.src.reread(s.tab, source)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	clauses := make([]term.Clause, 0, len(chunks))
	for _, ch := range chunks {
		if !ch.Directive {
			clauses = append(clauses, ch.Clause)
		}
	}
	prog, err := term.NewProgram(clauses)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParse, err)
	}
	exp, err := compiler.ExpandedProgram(s.tab, prog)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCompile, err)
	}
	var base compiler.Base
	if s.src.mod != nil {
		base = compiler.Base{Mod: s.src.mod, Prog: s.exp}
	}
	mod, copied, err := compiler.Link(s.tab, exp, base, compiler.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCompile, err)
	}
	src := &loadedSource{text: source, chunks: chunks, mod: mod, fresh: s.src.fresh}
	if s.src.mod == nil {
		src.fresh = s.tab.Len()
	}
	sys := &System{tab: s.tab, prog: prog, mod: mod, exp: exp, src: src}
	if s.mod != nil && s.mod == s.src.mod {
		if cond := s.cond.Load(); cond != nil {
			sys.from.Store(&derivation{cond: cond, spec: s.spec.Load(), copied: copied})
		}
	}
	return sys, nil
}

// derivation is what a derived System reuses of the System it was
// derived from, as far as that System had built it when Derive ran:
// its condensation and specialized program, and which predicates Link
// copied from its module (indexed like the new module's Order). The
// condensation keeps the base's components that the edit cannot
// reach, with their fingerprint memos (inc.Condensation.Derive), and
// the specialized program is derived over them
// (specialize.Program.Derive). The derived System drops the
// condensation and copied once it has built its own condensation, so
// that a System which never specializes (the backward route) does not
// keep the base's module alive.
type derivation struct {
	cond   *inc.Condensation
	spec   *specialize.Program
	copied []bool
}

// TableSize returns the number of atoms in s's symbol table, which s
// shares with the Systems it was derived from and those derived from
// it, and the number the table held when the first of them was loaded
// fresh.
func (s *System) TableSize() (atoms, atLoad int) {
	return s.tab.Len(), s.src.fresh
}

// reread returns the clause chunks of text, an edited version of
// s.text. Chunks that end strictly inside the common prefix of the two
// texts are kept: their bytes and the byte after each period are
// unchanged. Reading starts at the boundary after the last of them and
// stops at the first clause end that lies inside the common suffix and
// is, shifted back, a boundary of s.text: from equal bytes at
// boundaries the reader reads equal clauses, so s's chunks after that
// boundary follow, shifted.
func (s *loadedSource) reread(tab *term.Tab, text string) ([]parser.Chunk, error) {
	old := s.chunks
	pre := commonPrefix(s.text, text)
	suf := commonSuffix(s.text[pre:], text[pre:])
	k := sort.Search(len(old), func(i int) bool { return old[i].End >= pre })
	start := 0
	if k > 0 {
		start = old[k-1].End
	}
	shift := len(s.text) - len(text)
	var rest []parser.Chunk
	read, err := parser.ReadChunks(tab, text, start, func(end int) bool {
		if end < len(text)-suf {
			return false
		}
		at := end + shift
		if at == 0 {
			rest = old
			return true
		}
		j := sort.Search(len(old), func(i int) bool { return old[i].End >= at })
		if j < len(old) && old[j].End == at {
			rest = old[j+1:]
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	if k == 0 && len(rest) == 0 {
		return read, nil // nothing kept: a fresh load
	}
	out := make([]parser.Chunk, 0, k+len(read)+len(rest))
	out = append(out, old[:k]...)
	out = append(out, read...)
	for _, ch := range rest {
		ch.End -= shift
		out = append(out, ch)
	}
	return out, nil
}

// commonPrefix returns the length of the longest common prefix of a
// and b, comparing 64 bytes at a time while they agree.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i+64 <= n && a[i:i+64] == b[i:i+64] {
		i += 64
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns the length of the longest common suffix of a
// and b.
func commonSuffix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i+64 <= n && a[len(a)-i-64:len(a)-i] == b[len(b)-i-64:len(b)-i] {
		i += 64
	}
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}
