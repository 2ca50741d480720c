// Package vm compiles and executes FaaSLang. The compiler lowers a
// module's AST straight to register instructions run by one switch loop
// (see Function), and that one compiled form is the engine of both
// execution tiers: the interpreter tier runs it unguarded and books its
// ops at interpreter rates, the JIT tier runs it behind the entry type
// guards a JIT backend compiled and books JIT rates, and a guard failure
// de-optimizes the call to the interpreter tier of the same code. The VM
// counts the ops both tiers execute and hands the counts to a cost meter
// before anyone can read the clock (see Flush). It also collects the
// runtime profile (call counts, loop back-edges, observed argument
// types) that drives tier-up decisions in the JIT backend.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/lang"
)

// Tier identifies which execution tier is charging cost.
type Tier uint8

// Execution tiers.
const (
	TierInterp Tier = iota
	TierJIT
	numTiers = iota
)

// String returns the tier name.
func (t Tier) String() string {
	if t == TierJIT {
		return "jit"
	}
	return "interp"
}

// OpCounts counts executed ops per (tier, category).
type OpCounts [numTiers][NumCategories]int

// CostMeter receives the virtual cost of executed instructions: every
// op count since the last VM.Flush in one call, at least one of them
// non-zero. The runtime layer maps the counts to calibrated virtual
// durations.
type CostMeter interface {
	Charge(counts *OpCounts)
}

// NopMeter discards all charges (used by unit tests of pure semantics).
type NopMeter struct{}

// Charge implements CostMeter.
func (NopMeter) Charge(*OpCounts) {}

// JITBackend is the optimizing tier's hook into the VM.
type JITBackend interface {
	// Lookup reports whether fn is compiled and, if so, the entry type
	// guards its code is specialized for (nil: generic code).
	Lookup(fn *Function) (guards []lang.Type, compiled bool)
	// OnCall is invoked on every function entry with the current
	// profile, letting the backend trigger compilation.
	OnCall(v *VM, fn *Function, prof *Profile)
	// OnLoopBack is invoked on every loop back-edge.
	OnLoopBack(v *VM, fn *Function, prof *Profile)
	// OnDeopt is invoked when a call fails its entry guards and runs in
	// the interpreter tier instead, letting the backend charge the
	// de-optimization penalty and update its caches.
	OnDeopt(v *VM, fn *Function)
}

// ErrTooManySteps guards against runaway guest code.
var ErrTooManySteps = errors.New("vm: execution step limit exceeded")

// DefaultMaxSteps bounds one VM's total executed instructions.
const DefaultMaxSteps = int64(2_000_000_000)

// VM is one FaaSLang execution context (one guest's runtime).
type VM struct {
	Globals  map[string]lang.Value
	Meter    CostMeter
	JIT      JITBackend
	MaxSteps int64

	steps    int64
	profiles map[*Function]*Profile
	depth    int
	// pending counts the ops executed since the last Flush.
	pending OpCounts
}

// maxCallDepth bounds recursion in guest code, whichever tier runs it.
const maxCallDepth = 512

// New returns a VM with empty globals and the given meter (nil means
// NopMeter).
func New(meter CostMeter) *VM {
	if meter == nil {
		meter = NopMeter{}
	}
	return &VM{
		Globals:  make(map[string]lang.Value),
		Meter:    meter,
		MaxSteps: DefaultMaxSteps,
		profiles: make(map[*Function]*Profile),
	}
}

// Steps returns the total number of ops executed so far, in either
// tier.
func (v *VM) Steps() int64 { return v.steps }

// Flush charges the pending op counts to the meter in one Charge, if
// any op executed since the last Flush. The rule is that counts reach
// the clock before anyone can read it: the VM flushes before a native
// runs and when the outermost call returns (value or error), and the
// JIT backend flushes before its compile and deopt hooks charge.
// Between those points nothing can observe the clock, so every reading
// is the one a per-instruction meter would have produced.
func (v *VM) Flush() {
	if v.pending != (OpCounts{}) {
		v.Meter.Charge(&v.pending)
		v.pending = OpCounts{}
	}
}

// enter and leave bracket one activation (a closure call or a module's
// top level): enter enforces the depth limit for both tiers, leave
// flushes when the outermost activation returns.
func (v *VM) enter(fn *Function) error {
	if v.depth >= maxCallDepth {
		return fmt.Errorf("vm: call depth limit (%d) exceeded in %s", maxCallDepth, fn.Name)
	}
	v.depth++
	return nil
}

func (v *VM) leave() {
	v.depth--
	if v.depth == 0 {
		v.Flush()
	}
}

// Profile returns (creating if needed) the profile of fn.
func (v *VM) Profile(fn *Function) *Profile {
	p, ok := v.profiles[fn]
	if !ok {
		p = &Profile{}
		v.profiles[fn] = p
	}
	return p
}

// RunModule executes a module's top level, defining its functions and
// running its module-level statements.
func (v *VM) RunModule(mod *Module) (lang.Value, error) {
	if err := v.enter(mod.TopLevel); err != nil {
		return nil, err
	}
	defer v.leave()
	return v.run(mod.TopLevel, TierInterp, v.Profile(mod.TopLevel), nil)
}

// CallValue calls any callable FaaSLang value with args. It is the
// single call dispatcher used by guest code and host natives alike, so
// tier transitions happen in exactly one place.
func (v *VM) CallValue(fnVal lang.Value, args []lang.Value) (lang.Value, error) {
	switch fn := fnVal.(type) {
	case *lang.Native:
		if fn.Arity >= 0 && len(args) != fn.Arity {
			return nil, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, fn.Arity, len(args))
		}
		v.Flush() // a native may read the clock
		return fn.Fn(args)
	case *Closure:
		return v.callClosure(fn, args)
	default:
		return nil, fmt.Errorf("vm: value of type %s is not callable", lang.TypeOf(fnVal))
	}
}

func (v *VM) callClosure(cl *Closure, args []lang.Value) (lang.Value, error) {
	fn := cl.Fn
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, len(fn.Params), len(args))
	}
	if err := v.enter(fn); err != nil {
		return nil, err
	}
	defer v.leave()
	prof := v.Profile(fn)
	prof.RecordCall(args)
	tier := TierInterp
	if v.JIT != nil {
		v.JIT.OnCall(v, fn, prof)
		if guards, compiled := v.JIT.Lookup(fn); compiled {
			if guardsHold(guards, args) {
				tier = TierJIT
			} else {
				v.JIT.OnDeopt(v, fn)
			}
		}
	}
	return v.run(fn, tier, prof, args)
}

// guardsHold reports whether args pass compiled code's entry type
// guards; nil guards mean generic code, which takes any arguments.
func guardsHold(guards []lang.Type, args []lang.Value) bool {
	if guards == nil {
		return true
	}
	if len(args) != len(guards) {
		return false
	}
	for i, a := range args {
		if lang.TypeOf(a) != guards[i] {
			return false
		}
	}
	return true
}

// iter drives for-in loops over lists (items), maps (sorted keys), and
// strings (runes). It lives in a slot on the operand stack, stepped
// through by newIter and iterNext.
type iter struct {
	items []lang.Value
	idx   int
}

// newIter returns a slot holding an iterator over s, or an error for
// non-iterables.
func newIter(s Slot) (Slot, error) {
	var items []lang.Value
	switch v := s.ref.(type) {
	case *lang.List:
		items = v.Items
	case *lang.Map:
		keys := v.SortedKeys()
		items = make([]lang.Value, len(keys))
		for i, k := range keys {
			items[i] = k
		}
	case string:
		items = make([]lang.Value, 0, len(v))
		for _, r := range v {
			items = append(items, string(r))
		}
	default:
		return Slot{}, fmt.Errorf("vm: cannot iterate %s", s.kind)
	}
	return Slot{kind: lang.TOther, ref: &iter{items: items}}, nil
}

// iterNext returns the next item of the iterator in s, or ok=false when
// it is exhausted.
func iterNext(s Slot) (Slot, bool) {
	it := s.ref.(*iter)
	if it.idx >= len(it.items) {
		return Slot{}, false
	}
	v := it.items[it.idx]
	it.idx++
	return SlotOf(v), true
}
