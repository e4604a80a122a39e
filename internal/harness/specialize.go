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
// section of the JSON report: the ablation of the per-SCC specialized
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
	Name        string `json:"name"`
	Config      string `json:"config"`
	Leg         string `json:"leg"`
	Iters       int    `json:"iters"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// Steps is the abstract instruction count — identical across legs by
	// the byte-identity contract.
	Steps int64 `json:"steps"`
	// FusedOps is the number of fused superinstructions executed in one
	// run (zero for flatten).
	FusedOps int64 `json:"fused_ops"`
	// SpeedupVsFlatten is flatten-ns / this-leg-ns for the same (Name,
	// Config).
	SpeedupVsFlatten float64 `json:"speedup_vs_flatten"`
	// Identical records the per-cell byte-identity check against the
	// plain stream's Marshal output.
	Identical bool `json:"identical"`
}

// specLegs are the ablation legs.
var specLegs = []struct {
	name string
	opts specialize.Options
}{
	{"flatten", specialize.Options{}},
	{"fuse", specialize.Options{Fuse: true}},
	{"full", specialize.Options{Fuse: true, PreIntern: true}},
}

// measureSpecCell measures one (workload, config, leg) cell: an untimed
// verification run for Marshal identity, Steps and fused-op counts,
// then the shared timing loop.
func measureSpecCell(name, config, leg string, mod *wam.Module, cfg core.Config, wantMarshal string, quick bool) (SpecializeEntry, error) {
	e := SpecializeEntry{Name: name, Config: config, Leg: leg}
	res, err := core.NewWith(mod, cfg).AnalyzeMain()
	if err != nil {
		return e, fmt.Errorf("%s/%s/%s: %w", name, config, leg, err)
	}
	e.Steps = res.Steps
	e.Identical = res.Marshal() == wantMarshal
	if res.Metrics != nil {
		for _, n := range res.Metrics.FusedOps {
			e.FusedOps += n
		}
	}
	be, err := measureJSON(name, config, mod, cfg, quick)
	if err != nil {
		return e, err
	}
	e.Iters = be.Iters
	e.NsPerOp = be.NsPerOp
	e.BytesPerOp = be.BytesPerOp
	e.AllocsPerOp = be.AllocsPerOp
	return e, nil
}

// MeasureSpecialize produces the specialization ablation, all under the
// worklist: the wide scaling workloads across all three legs, plus the
// Table 1 suite at flatten/full.
// Fusion is guided by a measured profile of one plain-stream worklist
// run per workload. progress, when non-nil, receives one line per cell.
func MeasureSpecialize(quick bool, progress io.Writer) ([]SpecializeEntry, error) {
	say := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	var out []SpecializeEntry

	measure := func(p bench.Program, legs []struct {
		name string
		opts specialize.Options
	}) error {
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
		want := ref.Marshal()
		var flat int64
		for _, leg := range legs {
			cfg := worklistConfig()
			cfg.Spec = buildSpecProgram(mod, prof, leg.opts)
			say("  specialize %s/worklist/%s...\n", p.Name, leg.name)
			e, err := measureSpecCell(p.Name, "worklist", leg.name, mod, cfg, want, quick)
			if err != nil {
				return err
			}
			if leg.name == "flatten" {
				flat = e.NsPerOp
			}
			if flat > 0 && e.NsPerOp > 0 {
				e.SpeedupVsFlatten = float64(flat) / float64(e.NsPerOp)
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
	flatFull := []struct {
		name string
		opts specialize.Options
	}{specLegs[0], specLegs[2]}
	for _, p := range bench.Programs {
		if err := measure(p, flatFull); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteSpecializeTable renders the ablation as text.
func WriteSpecializeTable(w io.Writer, entries []SpecializeEntry) {
	fmt.Fprintln(w, "Specialized transfer streams: ablation (speedup vs flatten)")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tconfig\tleg\tns/op\tspeedup\tfused/run\tidentical")
	for _, e := range entries {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.2fx\t%d\t%v\n",
			e.Name, e.Config, e.Leg, e.NsPerOp, e.SpeedupVsFlatten, e.FusedOps, e.Identical)
	}
	tw.Flush()
}
