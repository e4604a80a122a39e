package wam

import (
	"fmt"
	"strconv"
	"strings"

	"awam/internal/term"
)

// Assemble parses a textual WAM listing — the same format Disasm emits —
// back into a Module. The paper's analyzer consumed WAM files produced
// by the PLM compiler; Assemble gives this toolchain the same property:
// `awam analyze file.wam` works on code produced elsewhere (or edited by
// hand), and Disasm/Assemble round-trips are tested.
//
// Format: one instruction per line, optionally prefixed by its address;
// `% name/arity:` comment lines label procedure entries, and
// `% name/arity clause N:` lines label clause starts. Blank lines and
// other comments are ignored.
func Assemble(tab *term.Tab, src string) (*Module, error) {
	m := &Module{Tab: tab, Procs: make(map[term.Functor]*Proc)}
	type fixup struct {
		addr int
		fn   term.Functor
	}
	var fixups []fixup
	var current *Proc

	lines := strings.Split(src, "\n")
	for lineNo, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "%") {
			// Label comments.
			text := strings.TrimSpace(strings.TrimPrefix(line, "%"))
			text = strings.TrimSuffix(text, ":")
			if fn, n, ok := parseClauseLabel(tab, text); ok {
				// Optimized modules append the dispatch entry after the
				// clause bodies, so a clause label may precede its
				// procedure's entry label; create the procedure on first
				// mention and let the entry label fill in the address.
				p := m.Procs[fn]
				if p == nil {
					p = &Proc{Fn: fn, Entry: FailAddr}
					m.Procs[fn] = p
					m.Order = append(m.Order, fn)
					current = p
				}
				for len(p.Clauses) < n {
					p.Clauses = append(p.Clauses, len(m.Code))
				}
				continue
			}
			if fn, ok := parseProcLabel(tab, text); ok {
				p := m.Procs[fn]
				if p == nil {
					p = &Proc{Fn: fn}
					m.Procs[fn] = p
					m.Order = append(m.Order, fn)
				}
				p.Entry = len(m.Code)
				current = p
				continue
			}
			continue // ordinary comment
		}
		// Strip a leading address.
		fields := strings.Fields(line)
		if len(fields) > 0 {
			if _, err := strconv.Atoi(fields[0]); err == nil {
				line = strings.TrimSpace(line[strings.Index(line, fields[0])+len(fields[0]):])
			}
		}
		ins, callFn, err := parseInstr(m, line)
		if err != nil {
			return nil, fmt.Errorf("wam asm line %d: %w", lineNo+1, err)
		}
		if callFn != nil {
			fixups = append(fixups, fixup{addr: len(m.Code), fn: *callFn})
		}
		m.Code = append(m.Code, ins)
		if current != nil {
			current.Profile.Instructions++
		}
	}
	// Procedures with no explicit clause labels get a single clause at
	// their entry; procedures whose entry label never appeared (clause
	// labels only) enter at their first clause.
	for _, fn := range m.Order {
		p := m.Procs[fn]
		if p.Entry == FailAddr && len(p.Clauses) > 0 {
			p.Entry = p.Clauses[0]
		}
		if len(p.Clauses) == 0 {
			p.Clauses = []int{p.Entry}
		}
	}
	for _, fx := range fixups {
		if p, ok := m.Procs[fx.fn]; ok {
			m.Code[fx.addr].L = p.Entry
		} else {
			m.Code[fx.addr].L = FailAddr
		}
	}
	return m, nil
}

func parseProcLabel(tab *term.Tab, text string) (term.Functor, bool) {
	return parseIndicator(tab, text)
}

func parseClauseLabel(tab *term.Tab, text string) (term.Functor, int, bool) {
	i := strings.Index(text, " clause ")
	if i < 0 {
		return term.Functor{}, 0, false
	}
	fn, ok := parseIndicator(tab, text[:i])
	if !ok {
		return term.Functor{}, 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(text[i+len(" clause "):]))
	if err != nil {
		return term.Functor{}, 0, false
	}
	return fn, n, true
}

func parseIndicator(tab *term.Tab, text string) (term.Functor, bool) {
	i := strings.LastIndex(text, "/")
	if i <= 0 {
		return term.Functor{}, false
	}
	arity, err := strconv.Atoi(text[i+1:])
	if err != nil || arity < 0 {
		return term.Functor{}, false
	}
	name := unquoteAtom(text[:i])
	return tab.Func(name, arity), true
}

func unquoteAtom(s string) string {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "\\'", "'")
	}
	return s
}

// parseInstr decodes one instruction line. It returns a functor to link
// when the instruction is a call/execute (resolved after all procedures
// are known). A switch's operands are appended to m.Switches.
func parseInstr(m *Module, line string) (Instr, *term.Functor, error) {
	tab := m.Tab
	addSwitch := func(op Op, sw Switch) Instr {
		m.Switches = append(m.Switches, sw)
		return Instr{Op: op, L: len(m.Switches) - 1}
	}
	name := line
	rest := ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		name, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	args := splitOperands(rest)

	reg := func(i int) (int, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("missing operand %d in %q", i, line)
		}
		a := args[i]
		if len(a) > 1 && (a[0] == 'A' || a[0] == 'X' || a[0] == 'Y') {
			return strconv.Atoi(a[1:])
		}
		return strconv.Atoi(a)
	}
	num := func(i int) (int64, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("missing operand %d in %q", i, line)
		}
		return strconv.ParseInt(args[i], 10, 64)
	}

	mk := func(op Op) Instr { return Instr{Op: op} }

	switch name {
	case "nop":
		return mk(OpNop), nil, nil
	case "get_variable", "get_value", "put_variable", "put_value":
		return parseRegReg(name, args, line)
	case "unify_variable", "unify_value":
		if len(args) != 1 || len(args[0]) < 2 {
			return Instr{}, nil, fmt.Errorf("%s needs one register: %q", name, line)
		}
		n, err := strconv.Atoi(args[0][1:])
		if err != nil {
			return Instr{}, nil, err
		}
		isY := args[0][0] == 'Y'
		var op Op
		switch {
		case name == "unify_variable" && isY:
			op = OpUnifyVarY
		case name == "unify_variable":
			op = OpUnifyVarX
		case isY:
			op = OpUnifyValY
		default:
			op = OpUnifyValX
		}
		return Instr{Op: op, A2: n}, nil, nil
	case "get_constant", "get_constant*":
		if len(args) != 2 {
			return Instr{}, nil, fmt.Errorf("get_constant needs 2 operands: %q", line)
		}
		ai, err := reg(1)
		if err != nil {
			return Instr{}, nil, err
		}
		op := OpGetConst
		if name == "get_constant*" {
			op = OpGetConstCmp
		}
		return Instr{Op: op, A1: ai, Fn: term.Functor{Name: tab.Intern(unquoteAtom(args[0]))}}, nil, nil
	case "get_integer", "get_integer*":
		n, err := num(0)
		if err != nil {
			return Instr{}, nil, err
		}
		ai, err := reg(1)
		if err != nil {
			return Instr{}, nil, err
		}
		op := OpGetInt
		if name == "get_integer*" {
			op = OpGetIntCmp
		}
		return Instr{Op: op, A1: ai, I: n}, nil, nil
	case "get_nil", "get_nil*", "get_list", "get_list*", "put_nil", "put_list":
		ai, err := reg(0)
		if err != nil {
			return Instr{}, nil, err
		}
		ops := map[string]Op{
			"get_nil": OpGetNil, "get_nil*": OpGetNilCmp,
			"get_list": OpGetList, "get_list*": OpGetListRead,
			"put_nil": OpPutNil, "put_list": OpPutList,
		}
		return Instr{Op: ops[name], A1: ai}, nil, nil
	case "get_structure", "get_structure*", "put_structure":
		fn, ok := parseIndicator(tab, args[0])
		if !ok {
			return Instr{}, nil, fmt.Errorf("bad functor %q", args[0])
		}
		ai, err := reg(1)
		if err != nil {
			return Instr{}, nil, err
		}
		ops := map[string]Op{
			"get_structure": OpGetStruct, "get_structure*": OpGetStructRead,
			"put_structure": OpPutStruct,
		}
		return Instr{Op: ops[name], A1: ai, Fn: fn}, nil, nil
	case "put_constant":
		ai, err := reg(1)
		if err != nil {
			return Instr{}, nil, err
		}
		return Instr{Op: OpPutConst, A1: ai, Fn: term.Functor{Name: tab.Intern(unquoteAtom(args[0]))}}, nil, nil
	case "put_integer":
		n, err := num(0)
		if err != nil {
			return Instr{}, nil, err
		}
		ai, err := reg(1)
		if err != nil {
			return Instr{}, nil, err
		}
		return Instr{Op: OpPutInt, A1: ai, I: n}, nil, nil
	case "unify_constant":
		return Instr{Op: OpUnifyConst, Fn: term.Functor{Name: tab.Intern(unquoteAtom(args[0]))}}, nil, nil
	case "unify_integer":
		n, err := num(0)
		if err != nil {
			return Instr{}, nil, err
		}
		return Instr{Op: OpUnifyInt, I: n}, nil, nil
	case "unify_nil":
		return mk(OpUnifyNil), nil, nil
	case "unify_void":
		n, err := num(0)
		if err != nil {
			return Instr{}, nil, err
		}
		return Instr{Op: OpUnifyVoid, A2: int(n)}, nil, nil
	case "allocate":
		n, err := num(0)
		if err != nil {
			return Instr{}, nil, err
		}
		return Instr{Op: OpAllocate, A2: int(n)}, nil, nil
	case "deallocate":
		return mk(OpDeallocate), nil, nil
	case "call", "execute":
		fn, ok := parseIndicator(tab, args[0])
		if !ok {
			return Instr{}, nil, fmt.Errorf("bad predicate %q", args[0])
		}
		op := OpCall
		if name == "execute" {
			op = OpExecute
		}
		return Instr{Op: op, Fn: fn}, &fn, nil
	case "proceed":
		return mk(OpProceed), nil, nil
	case "builtin":
		fn, ok := parseIndicator(tab, args[0])
		if !ok {
			return Instr{}, nil, fmt.Errorf("bad builtin %q", args[0])
		}
		for id, bi := range builtinNames {
			if tab.Intern(bi.name) == fn.Name && bi.arity == fn.Arity {
				return Instr{Op: OpBuiltin, A1: int(id), A2: bi.arity}, nil, nil
			}
		}
		return Instr{}, nil, fmt.Errorf("unknown builtin %q", args[0])
	case "halt":
		return mk(OpHalt), nil, nil
	case "neck_cut":
		return mk(OpNeckCut), nil, nil
	case "get_level":
		y, err := reg(0)
		if err != nil {
			return Instr{}, nil, err
		}
		return Instr{Op: OpGetLevel, A2: y}, nil, nil
	case "cut":
		y, err := reg(0)
		if err != nil {
			return Instr{}, nil, err
		}
		return Instr{Op: OpCutTo, A2: y}, nil, nil
	case "try_me_else", "retry_me_else", "try", "retry", "trust":
		n, err := num(0)
		if err != nil {
			return Instr{}, nil, err
		}
		ops := map[string]Op{
			"try_me_else": OpTryMeElse, "retry_me_else": OpRetryMeElse,
			"try": OpTry, "retry": OpRetry, "trust": OpTrust,
		}
		return Instr{Op: ops[name], L: int(n)}, nil, nil
	case "trust_me":
		return mk(OpTrustMe), nil, nil
	case "switch_on_term":
		// Disasm separates the arms with spaces; accept commas too.
		arms := strings.Fields(strings.ReplaceAll(rest, ",", " "))
		var sw Switch
		for _, a := range arms {
			kv := strings.SplitN(a, ":", 2)
			if len(kv) != 2 {
				return Instr{}, nil, fmt.Errorf("bad switch arm %q", a)
			}
			n, err := strconv.Atoi(kv[1])
			if err != nil {
				return Instr{}, nil, err
			}
			switch kv[0] {
			case "var":
				sw.LV = n
			case "const":
				sw.LC = n
			case "list":
				sw.LL = n
			case "struct":
				sw.LS = n
			}
		}
		return addSwitch(OpSwitchOnTerm, sw), nil, nil
	case "switch_on_constant":
		body, def, err := splitSwitchDefault(rest)
		if err != nil {
			return Instr{}, nil, err
		}
		tbl, err := parseConstTable(tab, body)
		if err != nil {
			return Instr{}, nil, err
		}
		return addSwitch(OpSwitchOnConst, Switch{TblC: tbl, LD: def}), nil, nil
	case "switch_on_structure":
		body, def, err := splitSwitchDefault(rest)
		if err != nil {
			return Instr{}, nil, err
		}
		tbl, err := parseStructTable(tab, body)
		if err != nil {
			return Instr{}, nil, err
		}
		return addSwitch(OpSwitchOnStruct, Switch{TblS: tbl, LD: def}), nil, nil
	default:
		return Instr{}, nil, fmt.Errorf("unknown instruction %q", name)
	}
}

// splitSwitchDefault splits a dispatch-table operand "{...} default N"
// into the braced table text and the default address (0 when absent).
func splitSwitchDefault(rest string) (string, int, error) {
	end := strings.LastIndex(rest, "}")
	if end < 0 {
		return rest, 0, nil
	}
	tail := strings.TrimSpace(rest[end+1:])
	if tail == "" {
		return rest, 0, nil
	}
	if !strings.HasPrefix(tail, "default ") {
		return "", 0, fmt.Errorf("bad switch suffix %q", tail)
	}
	n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(tail, "default ")))
	if err != nil {
		return "", 0, err
	}
	return rest[:end+1], n, nil
}

func parseRegReg(name string, args []string, line string) (Instr, *term.Functor, error) {
	if len(args) != 2 {
		return Instr{}, nil, fmt.Errorf("%s needs 2 operands: %q", name, line)
	}
	src, dst := args[0], args[1]
	n, err := strconv.Atoi(src[1:])
	if err != nil {
		return Instr{}, nil, err
	}
	isY := src[0] == 'Y'
	var ai int
	if dst != "" {
		ai, err = strconv.Atoi(dst[1:])
		if err != nil {
			return Instr{}, nil, err
		}
	}
	var op Op
	switch {
	case name == "get_variable" && isY:
		op = OpGetVarY
	case name == "get_variable":
		op = OpGetVarX
	case name == "get_value" && isY:
		op = OpGetValY
	case name == "get_value":
		op = OpGetValX
	case name == "put_variable" && isY:
		op = OpPutVarY
	case name == "put_variable":
		op = OpPutVarX
	case name == "put_value" && isY:
		op = OpPutValY
	case name == "put_value":
		op = OpPutValX
	default:
		return Instr{}, nil, fmt.Errorf("bad register instruction %q", line)
	}
	return Instr{Op: op, A1: ai, A2: n}, nil, nil
}

// splitOperands splits "a, b, c" into fields, keeping {...} tables
// intact.
func splitOperands(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func parseConstTable(tab *term.Tab, rest string) (map[ConstKey]int, error) {
	body := strings.TrimSpace(rest)
	body = strings.TrimPrefix(body, "{")
	body = strings.TrimSuffix(body, "}")
	tbl := make(map[ConstKey]int)
	if strings.TrimSpace(body) == "" {
		return tbl, nil
	}
	for _, ent := range strings.Split(body, ",") {
		kv := strings.SplitN(strings.TrimSpace(ent), "->", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad constant table entry %q", ent)
		}
		tgt, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil {
			return nil, err
		}
		keyText := strings.TrimSpace(kv[0])
		if n, err := strconv.ParseInt(keyText, 10, 64); err == nil {
			tbl[ConstKey{IsInt: true, I: n}] = tgt
		} else {
			tbl[ConstKey{A: tab.Intern(unquoteAtom(keyText))}] = tgt
		}
	}
	return tbl, nil
}

func parseStructTable(tab *term.Tab, rest string) (map[term.Functor]int, error) {
	body := strings.TrimSpace(rest)
	body = strings.TrimPrefix(body, "{")
	body = strings.TrimSuffix(body, "}")
	tbl := make(map[term.Functor]int)
	if strings.TrimSpace(body) == "" {
		return tbl, nil
	}
	for _, ent := range strings.Split(body, ",") {
		kv := strings.SplitN(strings.TrimSpace(ent), "->", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad structure table entry %q", ent)
		}
		tgt, err := strconv.Atoi(strings.TrimSpace(kv[1]))
		if err != nil {
			return nil, err
		}
		fn, ok := parseIndicator(tab, strings.TrimSpace(kv[0]))
		if !ok {
			return nil, fmt.Errorf("bad functor %q", kv[0])
		}
		tbl[fn] = tgt
	}
	return tbl, nil
}
