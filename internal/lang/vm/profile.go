package vm

import "repro/internal/lang"

// Profile is the runtime type feedback collected for one function. The
// JIT backend uses it to decide when to tier up and which argument types
// to specialize (and guard) on.
type Profile struct {
	// Calls counts function entries (both tiers).
	Calls int64
	// LoopBackEdges counts interpreter loop back-edges, the classic
	// "hot loop" tier-up signal.
	LoopBackEdges int64
	// ArgTypes is the argument type signature observed on the first
	// call; Stable is false once a later call disagrees (polymorphic
	// call site — the JIT then guards on the dominant signature and
	// deopts on mismatch).
	ArgTypes []lang.Type
	Stable   bool
	// Deopts counts how many times compiled code for this function
	// bailed back to the interpreter.
	Deopts int64
}

// RecordCall updates the profile for a call with the given arguments.
func (p *Profile) RecordCall(args []lang.Value) {
	p.Calls++
	if p.ArgTypes == nil {
		p.ArgTypes = make([]lang.Type, len(args))
		for i, a := range args {
			p.ArgTypes[i] = lang.TypeOf(a)
		}
		p.Stable = true
		return
	}
	if !p.Stable {
		return
	}
	if len(args) != len(p.ArgTypes) {
		p.Stable = false
		return
	}
	for i, a := range args {
		if lang.TypeOf(a) != p.ArgTypes[i] {
			p.Stable = false
			return
		}
	}
}
