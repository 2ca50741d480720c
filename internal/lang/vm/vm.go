// Package vm executes FaaSLang bytecode. It is the baseline execution
// tier (the "interpreter" in the paper's terminology): every instruction
// is dispatched dynamically and booked at interpreter-tier rates. The
// VM counts the ops both tiers execute and hands the counts to a cost
// meter before anyone can read the clock (see Flush). It also collects
// the runtime profile (call counts, loop back-edges, observed argument
// types) that drives tier-up decisions in the JIT backend, and it is the
// de-optimization target when JITted code's type guards fail.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
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

// CostMeter receives the virtual cost of executed instructions: n ops
// of one (tier, category) pair per call, handed over by VM.Flush. The
// runtime layer maps the pairs to calibrated virtual durations.
type CostMeter interface {
	Charge(tier Tier, cat bytecode.Category, n int)
}

// NopMeter discards all charges (used by unit tests of pure semantics).
type NopMeter struct{}

// Charge implements CostMeter.
func (NopMeter) Charge(Tier, bytecode.Category, int) {}

// Compiled is optimized code produced by a JIT backend for one function.
type Compiled interface {
	// Run executes the compiled function. deopt=true means an entry
	// type-guard failed and the caller must fall back to the
	// interpreter for this call.
	Run(v *VM, args []lang.Value) (result lang.Value, deopt bool, err error)
}

// JITBackend is the optimizing tier's hook into the VM.
type JITBackend interface {
	// Lookup returns compiled code for fn, or nil.
	Lookup(fn *bytecode.Function) Compiled
	// OnCall is invoked on every function entry with the current
	// profile, letting the backend trigger compilation.
	OnCall(v *VM, fn *bytecode.Function, prof *Profile)
	// OnLoopBack is invoked on every loop back-edge.
	OnLoopBack(v *VM, fn *bytecode.Function, prof *Profile)
	// OnDeopt is invoked when compiled code bails out to the
	// interpreter, letting the backend charge the de-optimization
	// penalty and update its caches.
	OnDeopt(v *VM, fn *bytecode.Function)
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
	profiles map[*bytecode.Function]*Profile
	depth    int
	// pending counts the ops executed since the last Flush.
	pending [numTiers][bytecode.NumCategories]int
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
		profiles: make(map[*bytecode.Function]*Profile),
	}
}

// Steps returns the total number of bytecode instructions executed so
// far, in either tier.
func (v *VM) Steps() int64 { return v.steps }

// CountStep books one op about to execute in tier: it counts against
// the step limit and joins the pending counts that the next Flush
// charges. The op that exceeds the limit is not booked.
func (v *VM) CountStep(tier Tier, cat bytecode.Category) error {
	v.steps++
	if v.steps > v.MaxSteps {
		return ErrTooManySteps
	}
	v.pending[tier][cat]++
	return nil
}

// Flush charges the pending op counts to the meter, one Charge per
// (tier, category) executed. The rule is that counts reach the clock
// before anyone can read it: the VM flushes before a native runs and
// when the outermost call returns (value or error), and the JIT backend
// flushes before its compile and deopt hooks charge. Between those
// points nothing can observe the clock, so every reading is the one a
// per-instruction meter would have produced.
func (v *VM) Flush() {
	for tier := range v.pending {
		for cat, n := range v.pending[tier] {
			if n != 0 {
				v.pending[tier][cat] = 0
				v.Meter.Charge(Tier(tier), bytecode.Category(cat), n)
			}
		}
	}
}

// enter and leave bracket one activation (a closure call or a module's
// top level): enter enforces the depth limit for both tiers, leave
// flushes when the outermost activation returns.
func (v *VM) enter(fn *bytecode.Function) error {
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
func (v *VM) Profile(fn *bytecode.Function) *Profile {
	p, ok := v.profiles[fn]
	if !ok {
		p = &Profile{}
		v.profiles[fn] = p
	}
	return p
}

// RunModule executes a module's top level, defining its functions and
// running its module-level statements.
func (v *VM) RunModule(mod *bytecode.Module) (lang.Value, error) {
	if err := v.enter(mod.TopLevel); err != nil {
		return nil, err
	}
	defer v.leave()
	return v.runFunction(mod.TopLevel, nil)
}

// CallValue calls any callable FaaSLang value with args. It is the
// single call dispatcher used by the interpreter, JITted code, and host
// natives alike, so tier transitions happen in exactly one place.
func (v *VM) CallValue(fnVal lang.Value, args []lang.Value) (lang.Value, error) {
	switch fn := fnVal.(type) {
	case *lang.Native:
		if fn.Arity >= 0 && len(args) != fn.Arity {
			return nil, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, fn.Arity, len(args))
		}
		v.Flush() // a native may read the clock
		return fn.Fn(args)
	case *bytecode.Closure:
		return v.callClosure(fn, args)
	default:
		return nil, fmt.Errorf("vm: value of type %s is not callable", lang.TypeOf(fnVal))
	}
}

func (v *VM) callClosure(cl *bytecode.Closure, args []lang.Value) (lang.Value, error) {
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
	if v.JIT != nil {
		v.JIT.OnCall(v, fn, prof)
		if comp := v.JIT.Lookup(fn); comp != nil {
			result, deopt, err := comp.Run(v, args)
			if !deopt {
				return result, err
			}
			v.JIT.OnDeopt(v, fn)
		}
	}
	return v.runFunction(fn, args)
}

// iter drives for-in loops over lists (items), maps (sorted keys), and
// strings (runes). It lives in a slot on the operand stack of either
// tier, which step it through NewIter and IterNext.
type iter struct {
	items []lang.Value
	idx   int
}

// NewIter returns a slot holding an iterator over s, or an error for
// non-iterables.
func NewIter(s Slot) (Slot, error) {
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

// IterNext returns the next item of the iterator in s, or ok=false when
// it is exhausted.
func IterNext(s Slot) (Slot, bool) {
	it := s.ref.(*iter)
	if it.idx >= len(it.items) {
		return Slot{}, false
	}
	v := it.items[it.idx]
	it.idx++
	return SlotOf(v), true
}

// runFunction interprets fn's bytecode. args may be nil for the module
// top level.
func (v *VM) runFunction(fn *bytecode.Function, args []lang.Value) (lang.Value, error) {
	locals := make([]Slot, fn.NumLocals)
	for i, a := range args {
		locals[i] = SlotOf(a)
	}
	stack := make([]Slot, 0, 16)
	push := func(s Slot) { stack = append(stack, s) }
	pop := func() Slot {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return s
	}
	popValues := func(n int) []lang.Value {
		vals := Values(stack[len(stack)-n:])
		stack = stack[:len(stack)-n]
		return vals
	}

	code := fn.Code
	prof := v.Profile(fn)
	for pc := 0; pc < len(code); {
		ins := code[pc]
		if err := v.CountStep(TierInterp, bytecode.CategoryOf(ins.Op)); err != nil {
			return nil, fmt.Errorf("%w (in %s)", err, fn.Name)
		}

		switch ins.Op {
		case bytecode.OpConst:
			push(SlotOf(fn.Consts[ins.A]))
		case bytecode.OpNull:
			push(Slot{})
		case bytecode.OpTrue:
			push(Bool(true))
		case bytecode.OpFalse:
			push(Bool(false))
		case bytecode.OpPop:
			pop()
		case bytecode.OpDup:
			push(stack[len(stack)-1])
		case bytecode.OpLoadLocal:
			push(locals[ins.A])
		case bytecode.OpStoreLocal:
			locals[ins.A] = pop()
		case bytecode.OpLoadGlobal:
			name := fn.Consts[ins.A].(string)
			val, ok := v.Globals[name]
			if !ok {
				return nil, fmt.Errorf("vm: line %d: undefined variable %q", ins.Line, name)
			}
			push(SlotOf(val))
		case bytecode.OpStoreGlobal:
			v.Globals[fn.Consts[ins.A].(string)] = pop().Value()
		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
			bytecode.OpEq, bytecode.OpNeq, bytecode.OpLt, bytecode.OpLte, bytecode.OpGt, bytecode.OpGte:
			right := pop()
			left := pop()
			val, err := BinaryOp(ins.Op, left, right)
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
			push(val)
		case bytecode.OpNeg:
			val, err := Negate(pop())
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
			push(val)
		case bytecode.OpNot:
			push(Bool(!pop().Truthy()))
		case bytecode.OpJump:
			pc = ins.A
			continue
		case bytecode.OpLoop:
			prof.LoopBackEdges++
			if v.JIT != nil {
				v.JIT.OnLoopBack(v, fn, prof)
			}
			pc = ins.A
			continue
		case bytecode.OpJumpIfFalse:
			if !pop().Truthy() {
				pc = ins.A
				continue
			}
		case bytecode.OpJumpIfTrue:
			if pop().Truthy() {
				pc = ins.A
				continue
			}
		case bytecode.OpCall:
			callArgs := popValues(ins.A)
			val, err := v.CallValue(pop().Value(), callArgs)
			if err != nil {
				return nil, err
			}
			push(SlotOf(val))
		case bytecode.OpReturn:
			return pop().Value(), nil
		case bytecode.OpMakeList:
			push(Slot{kind: lang.TList, ref: &lang.List{Items: popValues(ins.A)}})
		case bytecode.OpMakeMap:
			m, err := MakeMap(popValues(2 * ins.A))
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
			push(Slot{kind: lang.TMap, ref: m})
		case bytecode.OpIndex:
			key := pop()
			container := pop()
			val, err := Index(container, key)
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
			push(val)
		case bytecode.OpSetIndex:
			val := pop()
			key := pop()
			container := pop()
			if err := SetIndex(container, key, val); err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
		case bytecode.OpIterNew:
			it, err := NewIter(pop())
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %w", ins.Line, err)
			}
			push(it)
		case bytecode.OpIterNext:
			if item, ok := IterNext(stack[len(stack)-1]); ok {
				push(item)
			} else {
				pop() // discard exhausted iterator
				pc = ins.A
				continue
			}
		case bytecode.OpClosure:
			push(SlotOf(&bytecode.Closure{Fn: fn.Consts[ins.A].(*bytecode.Function)}))
		default:
			return nil, fmt.Errorf("vm: line %d: unknown opcode %s", ins.Line, ins.Op)
		}
		pc++
	}
	return nil, nil
}
