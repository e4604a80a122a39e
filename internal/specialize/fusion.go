package specialize

import (
	"fmt"

	"awam/internal/term"
	"awam/internal/wam"
)

// Fusion-rule bits for CompStream.FusionMask. Each rule fuses one
// anchor opcode with its two following unify slots into a single
// superinstruction word.
const (
	FuseGetList uint32 = 1 << iota // get_list + unify, unify
	FuseGetStruct
	FusePutList
	FusePutStruct
)

// NumFusedKinds is the superinstruction count — the size of the fused
// histogram in Metrics.
const NumFusedKinds = 4

// hotShareDen sets the hotness threshold: a component is hot when its
// predicates carry at least 1/hotShareDen (~0.1%) of the profile's
// total predicate steps. Cold components keep plain flattened streams;
// fusing them would grow the fused histogram for no measurable win.
const hotShareDen = 1024

// FusedKindOf maps a fused SOp to its histogram kind, or -1.
func FusedKindOf(op SOp) int {
	switch op {
	case SFGetList2:
		return 0
	case SFGetStruct2:
		return 1
	case SFPutList2:
		return 2
	case SFPutStruct2:
		return 3
	}
	return -1
}

var fusedNames = [NumFusedKinds]string{"fget_list2", "fget_struct2", "fput_list2", "fput_struct2"}

var fusedAnchors = [NumFusedKinds]string{"get_list", "get_structure", "put_list", "put_structure"}

// FusedKindName returns the superinstruction mnemonic for a histogram
// kind.
func FusedKindName(k int) string {
	if k < 0 || k >= NumFusedKinds {
		return fmt.Sprintf("fused(%d)", k)
	}
	return fusedNames[k]
}

// FusedKindBases describes the base-opcode decomposition of a kind —
// rendered next to the fused histogram so readers can reconcile it with
// the base opcode rows (each fused execution also counted its anchor
// and both slot opcodes there).
func FusedKindBases(k int) string {
	if k < 0 || k >= NumFusedKinds {
		return "?"
	}
	return fusedAnchors[k] + " + 2 unify"
}

// anchorCount sums a rule's anchor opcode occurrences in the profile,
// including the optimizer's known-nonvar variants.
func anchorCount(prof *Profile, kind int) int64 {
	switch kind {
	case 0:
		return prof.Opcodes[wam.OpGetList] + prof.Opcodes[wam.OpGetListRead]
	case 1:
		return prof.Opcodes[wam.OpGetStruct] + prof.Opcodes[wam.OpGetStructRead]
	case 2:
		return prof.Opcodes[wam.OpPutList]
	case 3:
		return prof.Opcodes[wam.OpPutStruct]
	}
	return 0
}

// slotCount sums the fusable unify-slot opcodes in the profile.
func slotCount(prof *Profile) int64 {
	return prof.Opcodes[wam.OpUnifyVarX] + prof.Opcodes[wam.OpUnifyValX] +
		prof.Opcodes[wam.OpUnifyConst] + prof.Opcodes[wam.OpUnifyInt] +
		prof.Opcodes[wam.OpUnifyNil]
}

// enabledMask selects the fusion rules for one component: fusion must
// be switched on, the component must be hot (its predicates' share of
// the profile's step weight clears 1/hotShareDen), and the rule's
// anchor and slot opcodes must actually occur in the profile. The
// decision is per component and per rule — the mask is recorded on the
// stream and salts that component's fingerprints (Program.CompSalt), so
// the incremental cache distinguishes runs with different fusion sets.
// total is prof.totalPredSteps(), computed once per Build by the caller
// so that selection costs O(members) per component, not O(predicates).
func enabledMask(prof *Profile, total int64, members []term.Functor, opts Options) uint32 {
	if prof == nil {
		return 0
	}
	var mine int64
	for _, fn := range members {
		mine += prof.PredSteps[fn]
	}
	return fusionMask(prof, total, mine, opts)
}

// fusionMask is enabledMask for a component of weight mine.
func fusionMask(prof *Profile, total, mine int64, opts Options) uint32 {
	if !opts.Fuse || prof == nil {
		return 0
	}
	if total > 0 && mine*hotShareDen < total {
		return 0
	}
	if slotCount(prof) == 0 {
		return 0
	}
	var mask uint32
	for k := 0; k < NumFusedKinds; k++ {
		if anchorCount(prof, k) > 0 {
			mask |= 1 << uint(k)
		}
	}
	return mask
}
