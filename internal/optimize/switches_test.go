package optimize

import (
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/term"
	"awam/internal/wam"
)

// TestSwitchTableNotAliased runs the whole pass pipeline, Specialize and
// StripUnreachable on the benchmark suite, the optimizer corpus and
// passProg. Each input's listing is byte-identical afterwards, and each
// output round-trips through Disasm, Assemble and Disasm, defaulted (LD)
// switch tables included. A switch appended to one output's side table
// must then survive switches appended to the other outputs and to the
// input: no two modules share the table's spare capacity.
func TestSwitchTableNotAliased(t *testing.T) {
	type input struct {
		name string
		tab  *term.Tab
		mod  *wam.Module
		res  *core.Result
	}
	var inputs []input
	for _, p := range bench.AllPrograms() {
		tab, mod, res := mustLoad(t, p.Source)
		inputs = append(inputs, input{p.Name, tab, mod, res})
	}
	for _, c := range loadCorpus(t) {
		if tab, mod, res, _, ok := loadCase(t, c); ok {
			inputs = append(inputs, input{c.name, tab, mod, res})
		}
	}
	tab, mod, res := mustLoad(t, passProg)
	inputs = append(inputs, input{"passProg", tab, mod, res})

	// mark appends a one-entry constant switch keyed n, as a later pass
	// or a compiled query would.
	mark := func(m *wam.Module, n int64) {
		m.EmitSwitch(wam.OpSwitchOnConst, wam.Switch{TblC: map[wam.ConstKey]int{{IsInt: true, I: n}: 0}})
	}
	defaults := 0
	for _, in := range inputs {
		before := in.mod.Disasm()
		var pl Pipeline
		pipelined, _, err := pl.Run(in.mod, in.res)
		if err != nil {
			t.Fatalf("%s: pipeline: %v", in.name, err)
		}
		specialized, _ := Specialize(in.mod, in.res)
		stripped, _ := StripUnreachable(in.mod, in.res)
		outs := []*wam.Module{pipelined, specialized, stripped}
		if got := in.mod.Disasm(); got != before {
			t.Fatalf("%s: optimizing changed the input module's listing", in.name)
		}
		for i, out := range outs {
			text := out.Disasm()
			back, err := wam.Assemble(in.tab, text)
			if err != nil {
				t.Fatalf("%s output %d: assemble: %v", in.name, i, err)
			}
			if again := back.Disasm(); again != text {
				t.Fatalf("%s output %d: Disasm/Assemble round trip drifted:\n%s\n---\n%s", in.name, i, text, again)
			}
			defaults += strings.Count(text, "} default ")
		}
		texts := make([]string, len(outs))
		for i, out := range outs {
			mark(out, int64(i))
			texts[i] = out.Disasm()
		}
		mark(in.mod, -1)
		for i, out := range outs {
			if out.Disasm() != texts[i] {
				t.Fatalf("%s output %d: a switch appended elsewhere overwrote this module's side table", in.name, i)
			}
		}
	}
	if defaults == 0 {
		t.Fatal("no output had a defaulted switch table; the round trip did not cover LD")
	}
}
