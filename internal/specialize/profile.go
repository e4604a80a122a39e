package specialize

import (
	"awam/internal/term"
	"awam/internal/wam"
)

// Profile is the fusion profile: the per-opcode execution histogram and
// per-predicate step weights that drive superinstruction selection. It
// is the shape of core.Metrics' Opcodes/PredSteps fields without the
// import (core depends on this package, not the reverse); callers with
// a measured Metrics copy the two fields across, and StaticProfile
// derives a static estimate when no run has been observed yet.
type Profile struct {
	// Opcodes counts executed (or statically present) instructions per
	// wam opcode.
	Opcodes [wam.NumOps]int64
	// PredSteps weighs each predicate; component hotness is its share
	// of the total. A nil/empty map means "no weights": every
	// component is considered hot.
	PredSteps map[term.Functor]int64
}

// StaticProfile estimates a fusion profile from the module text alone:
// each instruction counts once, each predicate weighs its static
// instruction count. Used for cold starts, before any Metrics
// histogram exists; a static count is a lower bound that already
// proves which opcode pairs occur at all.
func StaticProfile(mod *wam.Module) *Profile {
	p := &Profile{PredSteps: make(map[term.Functor]int64, len(mod.Order))}
	for _, ins := range mod.Code {
		p.Opcodes[ins.Op]++
	}
	for _, fn := range mod.Order {
		proc := mod.Procs[fn]
		if proc == nil {
			continue
		}
		p.PredSteps[fn] = staticWeight(proc)
	}
	return p
}

// staticWeight is a defined predicate's weight in the static profile:
// its instruction count, at least 1; an undefined one weighs nothing.
func staticWeight(proc *wam.Proc) int64 {
	if proc == nil {
		return 0
	}
	return max(int64(proc.Profile.Instructions), 1)
}

func (p *Profile) totalPredSteps() int64 {
	var t int64
	for _, v := range p.PredSteps {
		t += v
	}
	return t
}
