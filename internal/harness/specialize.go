package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/inc"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// This file backs `benchtab -table specialize` and the Specialize
// section of the report: the ablation of the per-SCC specialized
// transfer streams (internal/specialize) isolating what each layer
// buys. The legs are cumulative by construction:
//
//	flatten  — contiguous per-component streams, one word per wam
//	           instruction: the plain stream the engine runs when
//	           core.Config.Spec is nil, laid out per component
//	fuse     — flatten + profile-guided superinstruction fusion
//	full     — fuse + pre-interning: static call sites, whose calling
//	           pattern is abstracted and interned once per analysis
//
// Every leg is byte-identical to the plain stream (enforced per cell
// and by the differential suite); only the wall time moves.

// SpecProfile converts a measured Metrics into the specializer's fusion
// profile — the "profile-guided" input of Build. The opcode histogram
// picks which instruction pairs are worth fusing; the per-predicate
// step weights decide which components are hot enough to specialize.
func SpecProfile(m *core.Metrics) *specialize.Profile {
	if m == nil {
		return nil
	}
	p := &specialize.Profile{PredSteps: make(map[term.Functor]int64, len(m.PredSteps))}
	p.Opcodes = m.Opcodes
	for fn, n := range m.PredSteps {
		p.PredSteps[fn] = n
	}
	return p
}

// buildSpecProgram assembles the specialized program for mod the way
// the facade does, but from a measured profile when one is available.
func buildSpecProgram(mod *wam.Module, prof *specialize.Profile, opts specialize.Options) *specialize.Program {
	sccs := inc.NewCondensation(mod).SCCs
	comps := make([][]term.Functor, len(sccs))
	for i, scc := range sccs {
		comps[i] = scc.Members
	}
	if prof == nil {
		prof = specialize.StaticProfile(mod)
	}
	return specialize.Build(mod, comps, prof, opts)
}

// SpecializeEntry is one measured cell of the specialization ablation.
type SpecializeEntry struct {
	// Name is the workload, Config the engine ("worklist"),
	// Leg the specializer configuration ("flatten", "fuse", "full").
	Name   string `json:"name"`
	Config string `json:"config"`
	Leg    string `json:"leg"`
	Time   Stat   `json:"time"`
	// Steps is the abstract instruction count — identical across legs by
	// the byte-identity contract.
	Steps int64 `json:"steps"`
	// FusedOps is the number of fused superinstructions executed in one
	// run (zero for flatten).
	FusedOps int64 `json:"fused_ops"`
	// SpeedupVsFlatten is flatten time over this leg's time for the same
	// (Name, Config), sample by sample.
	SpeedupVsFlatten Dist `json:"speedup_vs_flatten"`
	// Identical records the per-cell byte-identity check against the
	// plain stream's Marshal output.
	Identical bool `json:"identical"`
}

// specLeg is one ablation leg.
type specLeg struct {
	name string
	opts specialize.Options
}

// specLegs are the ablation legs.
var specLegs = []specLeg{
	{"flatten", specialize.Options{}},
	{"fuse", specialize.Options{Fuse: true}},
	{"full", specialize.Options{Fuse: true, PreIntern: true}},
}

// worklistConfig is the engine configuration the ablation measures.
func worklistConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Strategy = core.StrategyWorklist
	return cfg
}

// MeasureSpecialize produces the specialization ablation, all under the
// worklist: the wide scaling workloads across all three legs, plus the
// Table 1 suite at flatten/full. The legs of one workload are measured
// together; Steps, fused-op counts and Marshal identity come from each
// leg's last run. Fusion is guided by a measured profile of one
// plain-stream worklist run per workload. progress, when non-nil,
// receives one line per workload.
func MeasureSpecialize(quick bool, progress io.Writer) ([]SpecializeEntry, error) {
	var out []SpecializeEntry
	measure := func(p bench.Program, legs []specLeg) error {
		if progress != nil {
			fmt.Fprintf(progress, "  specialize %s/worklist...\n", p.Name)
		}
		mod, err := compileBench(p)
		if err != nil {
			return err
		}
		// Profiling run: plain-stream worklist, also the identity
		// reference.
		ref, err := core.NewWith(mod, worklistConfig()).AnalyzeMain()
		if err != nil {
			return fmt.Errorf("%s: profile run: %w", p.Name, err)
		}
		prof := SpecProfile(ref.Metrics)
		results := make([]*core.Result, len(legs))
		sampled := make([]Leg, len(legs))
		for i, leg := range legs {
			cfg := worklistConfig()
			cfg.Spec = buildSpecProgram(mod, prof, leg.opts)
			sampled[i] = Leg{Name: leg.name, Run: func() (err error) {
				results[i], err = core.NewWith(mod, cfg).AnalyzeMain()
				return err
			}}
		}
		stats, err := Sample(quick, sampled...)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		want := ref.Marshal()
		for i, leg := range legs {
			e := SpecializeEntry{
				Name: p.Name, Config: "worklist", Leg: leg.name, Time: stats[i],
				Steps:            results[i].Steps,
				SpeedupVsFlatten: ratio(stats[0], stats[i]),
				Identical:        results[i].Marshal() == want,
			}
			if m := results[i].Metrics; m != nil {
				for _, n := range m.FusedOps {
					e.FusedOps += n
				}
			}
			out = append(out, e)
		}
		return nil
	}

	for _, fam := range []int{256, 512} {
		if err := measure(bench.WideProgram(fam), specLegs); err != nil {
			return nil, err
		}
	}
	for _, p := range bench.Programs {
		if err := measure(p, []specLeg{specLegs[0], specLegs[2]}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteSpecializeTable renders the ablation as text.
func WriteSpecializeTable(w io.Writer, entries []SpecializeEntry) {
	fmt.Fprintln(w, "Specialized transfer streams: ablation (speedup vs flatten)")
	fmt.Fprintln(w, "  "+hostLine())
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tconfig\tleg\tms\tspeedup\tfused/run\tidentical")
	for _, e := range entries {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%sx\t%d\t%v\n",
			e.Name, e.Config, e.Leg, e.Time.NsPerOp.format(1e6, 3), e.SpeedupVsFlatten.format(1, 2), e.FusedOps, e.Identical)
	}
	tw.Flush()
}
