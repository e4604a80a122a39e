package specialize_test

import (
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// opTracer counts Instr events per opcode.
type opTracer struct {
	ops [wam.NumOps]int64
}

func (o *opTracer) Instr(_ term.Functor, op wam.Op)     { o.ops[op]++ }
func (o *opTracer) Table(term.Functor, core.TableEvent) {}
func (o *opTracer) Enqueue(term.Functor)                {}
func (o *opTracer) Iteration(int)                       {}

// TestTracerLegs: on every stream configuration a Tracer sees one Instr
// event per charged base opcode — each fused word reports its anchor and
// both slots — so the per-opcode Instr counts equal Metrics.Opcodes, and
// installing it changes neither Marshal nor Steps nor the opcode
// histogram.
func TestTracerLegs(t *testing.T) {
	var fused int64
	for _, p := range bench.Programs {
		_, mod := buildMod(t, p.Source)
		for _, leg := range ablationLegs {
			var spec *specialize.Program
			if leg.opts != nil {
				spec = buildSpec(mod, *leg.opts)
			}
			for _, st := range []struct {
				name  string
				strat core.Strategy
			}{
				{"worklist", core.StrategyWorklist},
				{"naive", core.StrategyNaive},
			} {
				name := p.Name + "/" + leg.name + "/" + st.name
				cfg := core.DefaultConfig()
				cfg.Strategy = st.strat
				cfg.Spec = spec
				untraced, err := core.NewWith(mod, cfg).AnalyzeAll()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tr := &opTracer{}
				cfg.Tracer = tr
				traced, err := core.NewWith(mod, cfg).AnalyzeAll()
				if err != nil {
					t.Fatalf("%s traced: %v", name, err)
				}
				if tr.ops != traced.Metrics.Opcodes {
					t.Errorf("%s: Instr counts differ from Metrics.Opcodes", name)
				}
				if traced.Marshal() != untraced.Marshal() {
					t.Errorf("%s: tracing changed Marshal", name)
				}
				if traced.Steps != untraced.Steps || traced.Metrics.Opcodes != untraced.Metrics.Opcodes {
					t.Errorf("%s: tracing changed Steps (%d vs %d) or the opcode histogram",
						name, traced.Steps, untraced.Steps)
				}
				for _, n := range traced.Metrics.FusedOps {
					fused += n
				}
			}
		}
	}
	if fused == 0 {
		t.Error("no fused superinstruction executed: the fuse and full legs were not exercised")
	}
}
