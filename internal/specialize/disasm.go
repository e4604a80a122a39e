package specialize

import (
	"fmt"
	"strings"

	"awam/internal/rt"
	"awam/internal/term"
)

// Disasm renders the specialized program deterministically: components
// in condensation order, clauses in stream order, one pre-resolved
// word per line. The golden tests compare it byte for byte, like the
// WAM disassembly goldens.
func Disasm(tab *term.Tab, p *Program) string {
	var b strings.Builder
	comps, clauses, fused, static := p.Stats()
	fmt.Fprintf(&b, "%% specialize v%d fuse=%t pre=%t: %d components, %d clauses, %d fused, %d static sites\n",
		Version, p.Opts.Fuse, p.Opts.PreIntern, comps, clauses, fused, static)
	for i := range p.Comps {
		cs := p.Comp(i)
		names := make([]string, len(cs.Members))
		for i, fn := range cs.Members {
			names[i] = tab.FuncString(fn)
		}
		fmt.Fprintf(&b, "%% component %d {%s} mask=%s\n", cs.Index, strings.Join(names, ", "), maskString(cs.FusionMask))
		for ci, info := range cs.Clauses {
			end := int32(len(cs.Code))
			if ci+1 < len(cs.Clauses) {
				end = cs.Clauses[ci+1].Off
			}
			fmt.Fprintf(&b, "%% %s clause @%d (maxX=%d, fused=%d):\n",
				tab.FuncString(info.Fn), info.Addr, info.MaxX, info.Fused)
			for off := info.Off; off < end; off++ {
				fmt.Fprintf(&b, "%5d  %s\n", off, disasmWord(tab, cs, cs.Code[off]))
			}
		}
	}
	return b.String()
}

var trapNames = [...]string{TrapOpcode: "opcode", TrapRegister: "register", TrapEnd: "end"}

func maskString(mask uint32) string {
	if mask == 0 {
		return "-"
	}
	var parts []string
	for k := 0; k < NumFusedKinds; k++ {
		if mask&(1<<uint(k)) != 0 {
			parts = append(parts, fusedNames[k])
		}
	}
	return strings.Join(parts, "+")
}

func cellString(tab *term.Tab, c rt.Cell) string {
	switch c.Tag {
	case rt.Con:
		return tab.Name(c.F.Name)
	case rt.Int:
		return fmt.Sprintf("%d", c.I)
	default:
		return fmt.Sprintf("cell(tag=%d)", c.Tag)
	}
}

func slotString(tab *term.Tab, cs *CompStream, kind uint8, w fmt.Stringer, operand uint16) string {
	switch kind {
	case SlotVarX:
		return fmt.Sprintf("%s X%d", w, operand)
	case SlotValX:
		return fmt.Sprintf("%s X%d", w, operand)
	case SlotCell:
		return fmt.Sprintf("%s %s", w, cellString(tab, cs.Cells[operand]))
	}
	return fmt.Sprintf("slot(%d)", kind)
}

func callString(tab *term.Tab, cs *CompStream, k int32) string {
	cr := cs.Calls[k]
	s := tab.FuncString(cr.Fn)
	if cr.Comp == int32(cs.Index) {
		s += fmt.Sprintf(" [intra clause0=%d]", cr.Clause0)
	} else if cr.Comp >= 0 {
		s += fmt.Sprintf(" [comp %d]", cr.Comp)
	} else {
		s += " [extern]"
	}
	if cr.Static >= 0 {
		s += fmt.Sprintf(" [static #%d]", cr.Static)
	}
	return s
}

func disasmWord(tab *term.Tab, cs *CompStream, ins SInstr) string {
	switch ins.Op {
	case SNop:
		return "s_nop"
	case SGetVarX:
		return fmt.Sprintf("s_get_variable X%d, A%d", ins.B, ins.A)
	case SGetVarY:
		return fmt.Sprintf("s_get_variable Y%d, A%d", ins.B, ins.A)
	case SGetValX:
		return fmt.Sprintf("s_get_value X%d, A%d", ins.B, ins.A)
	case SGetValY:
		return fmt.Sprintf("s_get_value Y%d, A%d", ins.B, ins.A)
	case SGetCell:
		return fmt.Sprintf("s_get %s, A%d  (%s)", cellString(tab, cs.Cells[ins.K]), ins.A, ins.W)
	case SGetList:
		return fmt.Sprintf("s_get_list A%d  (%s)", ins.A, ins.W)
	case SGetStruct:
		return fmt.Sprintf("s_get_structure %s, A%d  (%s)", tab.FuncString(cs.Fns[ins.K]), ins.A, ins.W)
	case SPutVarX:
		return fmt.Sprintf("s_put_variable X%d, A%d", ins.B, ins.A)
	case SPutVarY:
		return fmt.Sprintf("s_put_variable Y%d, A%d", ins.B, ins.A)
	case SPutValX:
		return fmt.Sprintf("s_put_value X%d, A%d", ins.B, ins.A)
	case SPutValY:
		return fmt.Sprintf("s_put_value Y%d, A%d", ins.B, ins.A)
	case SPutCell:
		return fmt.Sprintf("s_put %s, A%d  (%s)", cellString(tab, cs.Cells[ins.K]), ins.A, ins.W)
	case SPutList:
		return fmt.Sprintf("s_put_list A%d", ins.A)
	case SPutStruct:
		return fmt.Sprintf("s_put_structure %s, A%d", tab.FuncString(cs.Fns[ins.K]), ins.A)
	case SUnifyVarX:
		return fmt.Sprintf("s_unify_variable X%d", ins.A)
	case SUnifyVarY:
		return fmt.Sprintf("s_unify_variable Y%d", ins.A)
	case SUnifyValX:
		return fmt.Sprintf("s_unify_value X%d", ins.A)
	case SUnifyValY:
		return fmt.Sprintf("s_unify_value Y%d", ins.A)
	case SUnifyCell:
		return fmt.Sprintf("s_unify %s  (%s)", cellString(tab, cs.Cells[ins.K]), ins.W)
	case SUnifyVoid:
		return fmt.Sprintf("s_unify_void %d", ins.A)
	case SAllocate:
		return fmt.Sprintf("s_allocate %d", ins.A)
	case SDeallocate:
		return "s_deallocate"
	case SCall:
		return "s_call " + callString(tab, cs, ins.K)
	case SExecute:
		return "s_execute " + callString(tab, cs, ins.K)
	case SProceed:
		return "s_proceed"
	case SBuiltin:
		return fmt.Sprintf("s_builtin #%d/%d", ins.A, ins.B)
	case SHalt:
		return "s_halt"
	case SCutNop:
		return fmt.Sprintf("s_cut_nop  (%s)", ins.W)
	case STrap:
		return fmt.Sprintf("s_trap %s @%d  (%s)", trapNames[ins.A], ins.K, ins.W)
	case SFGetList2:
		return fmt.Sprintf("FGET_LIST2 A%d {%s; %s}", ins.A,
			slotString(tab, cs, ins.M&3, ins.W1, ins.B),
			slotString(tab, cs, (ins.M>>2)&3, ins.W2, ins.C))
	case SFGetStruct2:
		return fmt.Sprintf("FGET_STRUCT2 %s, A%d {%s; %s}", tab.FuncString(cs.Fns[ins.K]), ins.A,
			slotString(tab, cs, ins.M&3, ins.W1, ins.B),
			slotString(tab, cs, (ins.M>>2)&3, ins.W2, ins.C))
	case SFPutList2:
		return fmt.Sprintf("FPUT_LIST2 A%d {%s; %s}", ins.A,
			slotString(tab, cs, ins.M&3, ins.W1, ins.B),
			slotString(tab, cs, (ins.M>>2)&3, ins.W2, ins.C))
	case SFPutStruct2:
		return fmt.Sprintf("FPUT_STRUCT2 %s, A%d {%s; %s}", tab.FuncString(cs.Fns[ins.K]), ins.A,
			slotString(tab, cs, ins.M&3, ins.W1, ins.B),
			slotString(tab, cs, (ins.M>>2)&3, ins.W2, ins.C))
	}
	return fmt.Sprintf("sop(%d)", ins.Op)
}
