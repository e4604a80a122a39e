package wam

import (
	"math/rand"
	"strings"
	"testing"

	"awam/internal/term"
)

func TestAssembleSimple(t *testing.T) {
	tab := term.NewTab()
	src := `
% p/2:
% p/2 clause 1:
    0  get_constant a, A1
    1  get_variable X3, A2
    2  put_value X3, A1
    3  execute q/1
% q/1:
% q/1 clause 1:
    4  proceed
`
	mod, err := Assemble(tab, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Code) != 5 {
		t.Fatalf("code size = %d", len(mod.Code))
	}
	p := mod.Proc(tab.Func("p", 2))
	if p == nil || p.Entry != 0 || len(p.Clauses) != 1 {
		t.Fatalf("p/2 proc = %+v", p)
	}
	q := mod.Proc(tab.Func("q", 1))
	if q == nil || q.Entry != 4 {
		t.Fatalf("q/1 proc = %+v", q)
	}
	// The execute must be linked to q's entry.
	if mod.Code[3].Op != OpExecute || mod.Code[3].L != 4 {
		t.Fatalf("execute not linked: %+v", mod.Code[3])
	}
}

// TestAssembleClauseBeforeEntry: optimizer output appends a predicate's
// dispatch entry after its clause bodies, so clause labels may precede
// the entry label — and when the entry label is missing entirely, the
// procedure enters at its first clause.
func TestAssembleClauseBeforeEntry(t *testing.T) {
	tab := term.NewTab()
	src := `
% p/1 clause 1:
    0  get_constant a, A1
    1  proceed
% p/1 clause 2:
    2  get_constant b, A1
    3  proceed
% p/1:
    4  try 0
    5  trust 2
`
	mod, err := Assemble(tab, src)
	if err != nil {
		t.Fatal(err)
	}
	p := mod.Proc(tab.Func("p", 1))
	if p == nil || p.Entry != 4 || len(p.Clauses) != 2 || p.Clauses[0] != 0 || p.Clauses[1] != 2 {
		t.Fatalf("p/1 proc = %+v", p)
	}

	mod, err = Assemble(tab, "% p/0 clause 1:\nproceed\n")
	if err != nil {
		t.Fatal(err)
	}
	if p := mod.Proc(tab.Func("p", 0)); p == nil || p.Entry != 0 {
		t.Fatalf("entryless p/0 proc = %+v", p)
	}
}

func TestAssembleUnknownInstruction(t *testing.T) {
	tab := term.NewTab()
	if _, err := Assemble(tab, "% p/0:\nfly_to_moon A1\n"); err == nil {
		t.Fatal("expected error for unknown instruction")
	}
}

func TestAssembleUndefinedCallLinksToFail(t *testing.T) {
	tab := term.NewTab()
	mod, err := Assemble(tab, "% p/0:\n% p/0 clause 1:\ncall missing/0\nproceed\n")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Code[0].L != FailAddr {
		t.Fatalf("undefined call should link to FailAddr, got %d", mod.Code[0].L)
	}
}

func TestAssembleSwitchTables(t *testing.T) {
	tab := term.NewTab()
	src := `
% p/1:
    0  switch_on_term var:1, const:5, list:-1, struct:6
% p/1 clause 1:
    1  try_me_else 3
    2  proceed
% p/1 clause 2:
    3  trust_me
    4  proceed
    5  switch_on_constant {a->2, 7->4}
    6  switch_on_structure {f/2->2}
`
	mod, err := Assemble(tab, src)
	if err != nil {
		t.Fatal(err)
	}
	sw := mod.Switch(mod.Code[0])
	if sw.LV != 1 || sw.LC != 5 || sw.LL != FailAddr || sw.LS != 6 {
		t.Fatalf("switch arms = %+v", sw)
	}
	tblC := mod.Switch(mod.Code[5]).TblC
	if tblC[ConstKey{A: tab.Intern("a")}] != 2 || tblC[ConstKey{IsInt: true, I: 7}] != 4 {
		t.Fatalf("const table = %v", tblC)
	}
	tblS := mod.Switch(mod.Code[6]).TblS
	if tblS[tab.Func("f", 2)] != 2 {
		t.Fatalf("struct table = %v", tblS)
	}
}

func TestAssembleBuiltins(t *testing.T) {
	tab := term.NewTab()
	mod, err := Assemble(tab, "% p/2:\n% p/2 clause 1:\nbuiltin is/2\nbuiltin =</2\nproceed\n")
	if err != nil {
		t.Fatal(err)
	}
	if BuiltinID(mod.Code[0].A1) != BIIs || BuiltinID(mod.Code[1].A1) != BILe {
		t.Fatalf("builtins decoded as %d, %d", mod.Code[0].A1, mod.Code[1].A1)
	}
}

func TestDisasmLabelsBothEntryAndClause(t *testing.T) {
	tab := term.NewTab()
	mod := &Module{Tab: tab, Procs: make(map[term.Functor]*Proc)}
	fn := tab.Func("p", 0)
	mod.Code = []Instr{{Op: OpProceed}}
	mod.Procs[fn] = &Proc{Fn: fn, Entry: 0, Clauses: []int{0}}
	mod.Order = []term.Functor{fn}
	out := mod.Disasm()
	if !strings.Contains(out, "% p/0:\n% p/0 clause 1:\n") {
		t.Fatalf("labels missing:\n%s", out)
	}
}

func TestAssembleErrorPaths(t *testing.T) {
	tab := term.NewTab()
	cases := []string{
		"% p/0:\nget_constant\n",         // missing operands
		"% p/0:\nbuiltin frobnicate/9\n", // unknown builtin
		"% p/0:\nswitch_on_term var:x\n", // non-numeric target
		"% p/1:\nget_structure zz, A1\n", // malformed functor
	}
	for _, src := range cases {
		if _, err := Assemble(tab, src); err == nil {
			t.Errorf("Assemble(%q): expected error", src)
		}
	}
}

// TestAssembleRandomRoundTrip: random (valid) instruction sequences
// survive Disasm -> Assemble with operands intact.
func TestAssembleRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	tab := term.NewTab()
	atoms := []term.Atom{tab.Intern("a"), tab.Intern("foo"), tab.Nil}
	fns := []term.Functor{tab.Func("f", 2), tab.Func("g", 1), tab.ConsFunctor()}
	genInstr := func() Instr {
		switch r.Intn(14) {
		case 0:
			return Instr{Op: OpGetVarX, A1: 1 + r.Intn(5), A2: 1 + r.Intn(9)}
		case 1:
			return Instr{Op: OpGetValY, A1: 1 + r.Intn(5), A2: r.Intn(4)}
		case 2:
			return Instr{Op: OpGetConst, A1: 1 + r.Intn(5), Fn: term.Functor{Name: atoms[r.Intn(3)]}}
		case 3:
			return Instr{Op: OpGetInt, A1: 1 + r.Intn(5), I: int64(r.Intn(100) - 50)}
		case 4:
			return Instr{Op: OpGetStruct, A1: 1 + r.Intn(5), Fn: fns[r.Intn(2)]}
		case 5:
			return Instr{Op: OpPutList, A1: 1 + r.Intn(5)}
		case 6:
			return Instr{Op: OpUnifyVarX, A2: 1 + r.Intn(9)}
		case 7:
			return Instr{Op: OpUnifyConst, Fn: term.Functor{Name: atoms[r.Intn(3)]}}
		case 8:
			return Instr{Op: OpUnifyVoid, A2: 1 + r.Intn(3)}
		case 9:
			return Instr{Op: OpAllocate, A2: r.Intn(6)}
		case 10:
			return Instr{Op: OpNeckCut}
		case 11:
			return Instr{Op: OpGetLevel, A2: r.Intn(4)}
		case 12:
			return Instr{Op: OpBuiltin, A1: int(BIIs), A2: 2}
		default:
			return Instr{Op: OpUnifyNil}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		mod := &Module{Tab: tab, Procs: make(map[term.Functor]*Proc)}
		fn := tab.Func("p", 2)
		for i := 0; i < n; i++ {
			mod.Code = append(mod.Code, genInstr())
		}
		mod.Code = append(mod.Code, Instr{Op: OpProceed})
		mod.Procs[fn] = &Proc{Fn: fn, Entry: 0, Clauses: []int{0}}
		mod.Order = []term.Functor{fn}

		back, err := Assemble(tab, mod.Disasm())
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, mod.Disasm())
		}
		if len(back.Code) != len(mod.Code) {
			t.Fatalf("trial %d: length %d vs %d", trial, len(back.Code), len(mod.Code))
		}
		for i := range mod.Code {
			a, b := mod.Code[i], back.Code[i]
			if a.Op != b.Op || a.A1 != b.A1 || a.A2 != b.A2 || a.Fn != b.Fn || a.I != b.I {
				t.Fatalf("trial %d instr %d: %+v vs %+v\n%s", trial, i, a, b, mod.Disasm())
			}
		}
	}
}
