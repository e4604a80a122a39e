package awam

import (
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"awam/internal/core"
	"awam/internal/domain"
)

// Mode classifies one argument's instantiation transition between the
// lubbed calling pattern and the lubbed success pattern.
type Mode int

const (
	// ModeUnknown is any transition the other modes do not cover ('?').
	ModeUnknown Mode = iota
	// ModeInGround: ground at call ('+g').
	ModeInGround
	// ModeIn: instantiated (nonvar) at call ('+').
	ModeIn
	// ModeOutGround: free at call, ground at success ('-g').
	ModeOutGround
	// ModeOut: free at call, instantiated at success ('-').
	ModeOut
	// ModeOutMaybe: free at call, possibly still free at success ('-?').
	ModeOutMaybe
)

// String writes the conventional mode symbol.
func (m Mode) String() string {
	switch m {
	case ModeInGround:
		return "+g"
	case ModeIn:
		return "+"
	case ModeOutGround:
		return "-g"
	case ModeOut:
		return "-"
	case ModeOutMaybe:
		return "-?"
	}
	return "?"
}

// MarshalJSON renders the mode as its conventional symbol ("+g", "-?"),
// so JSON consumers (the awamd daemon's responses) see mode syntax, not
// enum ordinals.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(m.String())), nil
}

// UnmarshalJSON reads the symbol form back ("?" and unknown symbols
// decode as ModeUnknown), so client code can round-trip daemon
// responses through this package's types.
func (m *Mode) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return err
	}
	*m = modeOf(s)
	return nil
}

// modeOf maps the classifier strings of core.ArgModes onto the enum.
func modeOf(s string) Mode {
	switch s {
	case "+g":
		return ModeInGround
	case "+":
		return ModeIn
	case "-g":
		return ModeOutGround
	case "-":
		return ModeOut
	case "-?":
		return ModeOutMaybe
	}
	return ModeUnknown
}

// Type is the abstract type of an argument in the analysis domain — the
// root of its depth-k type graph.
type Type int

const (
	// TypeAny is the domain's top: nothing is known.
	TypeAny Type = iota
	// TypeEmpty is the domain's bottom: the argument has no value (the
	// call never succeeds).
	TypeEmpty
	// TypeVar is an unbound, unaliased variable.
	TypeVar
	// TypeNil is the empty list.
	TypeNil
	// TypeAtom is an atom.
	TypeAtom
	// TypeInt is an integer.
	TypeInt
	// TypeConst is an atomic constant (atom, integer or nil).
	TypeConst
	// TypeGround is a ground term.
	TypeGround
	// TypeNonVar is an instantiated term, possibly with variables inside.
	TypeNonVar
	// TypeList is a (possibly open) list.
	TypeList
	// TypeStruct is a compound term.
	TypeStruct
)

// String names the type like the report output does.
func (t Type) String() string {
	switch t {
	case TypeEmpty:
		return "empty"
	case TypeVar:
		return "var"
	case TypeNil:
		return "nil"
	case TypeAtom:
		return "atom"
	case TypeInt:
		return "int"
	case TypeConst:
		return "const"
	case TypeGround:
		return "ground"
	case TypeNonVar:
		return "nonvar"
	case TypeList:
		return "list"
	case TypeStruct:
		return "struct"
	}
	return "any"
}

// MarshalJSON renders the type by name ("ground", "list"), matching the
// report output rather than enum ordinals.
func (t Type) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(t.String())), nil
}

// UnmarshalJSON reads the name form back; unknown names decode as
// TypeAny, the domain's top.
func (t *Type) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return err
	}
	*t = TypeAny
	for k := TypeAny; k <= TypeStruct; k++ {
		if k.String() == s {
			*t = k
			break
		}
	}
	return nil
}

// typeOf maps a domain kind onto the public Type enum.
func typeOf(k domain.Kind) Type {
	switch k {
	case domain.Empty:
		return TypeEmpty
	case domain.Var:
		return TypeVar
	case domain.Nil:
		return TypeNil
	case domain.Atom:
		return TypeAtom
	case domain.Intg:
		return TypeInt
	case domain.Const:
		return TypeConst
	case domain.Ground:
		return TypeGround
	case domain.NV:
		return TypeNonVar
	case domain.List:
		return TypeList
	case domain.Struct:
		return TypeStruct
	}
	return TypeAny
}

// ArgSummary describes one argument of an analyzed predicate.
type ArgSummary struct {
	// Mode is the instantiation transition (call -> success).
	Mode Mode
	// CallType and SuccessType are the argument's abstract types in the
	// lubbed calling and success patterns. SuccessType is TypeEmpty when
	// no call of the predicate ever succeeds.
	CallType    Type
	SuccessType Type
}

// Summary is the typed analysis result for one predicate — the
// structured form behind the string accessors Modes, SuccessPattern and
// AliasPairs.
type Summary struct {
	// Pred is the predicate as "name/arity".
	Pred string
	// Args holds one entry per argument.
	Args []ArgSummary
	// Call and Success are the lubbed calling and success patterns
	// written as abstract terms (Success is "" when Succeeds is false).
	Call    string
	Success string
	// Succeeds reports whether any recorded call of the predicate can
	// succeed.
	Succeeds bool
	// AliasPairs lists 1-based argument index pairs that may share
	// variables on success.
	AliasPairs [][2]int
	// Det reports whether every recorded calling pattern is determinate:
	// at most one clause head can match it (sound, may miss determinacy
	// caused by body failures).
	Det bool
}

// Summary returns the typed analysis summary of a predicate given as
// "name/arity", and whether the predicate appears in the analysis.
//
// An analysis through a summary store (WithSummaryCache) keeps each
// summary it computes with the store, and reuses one kept by an earlier
// analysis when the predicate's code, configuration and table entries
// are the very same: consecutive analyses of one program's versions
// compute again only the summaries their edits changed.
func (a *Analysis) Summary(pred string) (Summary, bool) {
	fn, ents, ok := a.findPred(pred)
	if !ok {
		return Summary{}, false
	}
	if a.inc != nil {
		if v, ok := a.inc.StoredSummary(fn, ents); ok {
			a.stored.Add(1)
			return v.(Summary).clone(), true
		}
	}
	a.computed.Add(1)
	s := a.summarize(pred, ents)
	if a.inc != nil {
		a.inc.KeepSummary(fn, ents, s.clone(), s.size())
	}
	return s, true
}

// clone copies the summary's slices, so that a stored summary and the
// copies handed out never share them.
func (s Summary) clone() Summary {
	s.Args = slices.Clone(s.Args)
	s.AliasPairs = slices.Clone(s.AliasPairs)
	return s
}

// size is the memory a copy of s holds: the struct, its strings' bytes
// and its slices' arrays.
func (s Summary) size() int64 {
	return int64(unsafe.Sizeof(s)) + int64(len(s.Pred)+len(s.Call)+len(s.Success)) +
		int64(len(s.Args))*int64(unsafe.Sizeof(ArgSummary{})) + int64(len(s.AliasPairs))*int64(unsafe.Sizeof([2]int{}))
}

// summarize computes the summary of pred from its table entries.
func (a *Analysis) summarize(pred string, ents []*core.Entry) Summary {
	// The lubbed calling and success patterns, as core.Result's CallFor
	// and SuccessFor compute them, over the pre-grouped entries.
	var cp, succ *domain.Pattern
	for _, e := range ents {
		cp = domain.LubPattern(a.res.Tab, cp, e.CP)
		if e.Succ != nil {
			succ = domain.LubPattern(a.res.Tab, succ, e.Succ)
		}
	}
	s := Summary{Pred: pred, Succeeds: succ != nil, Det: a.det(ents)}
	if cp != nil {
		s.Call = cp.String(a.sys.tab)
	}
	if succ != nil {
		s.Success = succ.String(a.sys.tab)
		pairs := succ.ArgSharePairs()
		if len(pairs) > 0 {
			s.AliasPairs = make([][2]int, len(pairs))
			for i, p := range pairs {
				s.AliasPairs[i] = [2]int{p[0] + 1, p[1] + 1}
			}
		}
	}
	modes := core.ArgModes(a.sys.tab, cp, succ)
	if cp != nil {
		s.Args = make([]ArgSummary, len(cp.Args))
		for i, in := range cp.Args {
			arg := ArgSummary{CallType: typeOf(in.Kind), SuccessType: TypeEmpty}
			if i < len(modes) {
				arg.Mode = modeOf(modes[i])
			}
			if succ != nil && i < len(succ.Args) {
				arg.SuccessType = typeOf(succ.Args[i].Kind)
			}
			s.Args[i] = arg
		}
	}
	return s
}

// ModeString writes the summary as a conventional mode declaration,
// e.g. "append(+g, +g, -g)".
func (s Summary) ModeString() string {
	if len(s.Args) == 0 {
		return ""
	}
	parts := make([]string, len(s.Args))
	for i, arg := range s.Args {
		parts[i] = arg.Mode.String()
	}
	name := s.Pred
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	return name + "(" + strings.Join(parts, ", ") + ")"
}
