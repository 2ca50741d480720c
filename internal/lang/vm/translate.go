package vm

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
)

// Program is the translation of the loaded module: for every function,
// a direct-threaded slice of Go closures, one per instruction. It is
// the one engine both tiers run; the tier decides only which rates the
// ops are charged at, whether loop back-edges feed the profile, and
// (for the JIT) which entry guards are checked first. A Program is
// immutable once built, so every VM revived from one snapshot shares it
// without locks.
type Program struct {
	code map[*bytecode.Function]*code
}

// translateModule translates mod's top level and every function
// reachable from it, including function literals.
func translateModule(mod *bytecode.Module) *Program {
	p := &Program{code: make(map[*bytecode.Function]*code)}
	p.add(mod.TopLevel)
	for _, fn := range mod.Functions {
		p.add(fn)
	}
	return p
}

func (p *Program) add(fn *bytecode.Function) {
	if _, ok := p.code[fn]; ok {
		return
	}
	c := &code{fn: fn, ops: make([]op, len(fn.Code))}
	for i, ins := range fn.Code {
		c.ops[i] = op{cat: bytecode.CategoryOf(ins.Op), line: ins.Line, run: translate(fn, ins)}
	}
	p.code[fn] = c
	for _, k := range fn.Consts {
		if inner, ok := k.(*bytecode.Function); ok {
			p.add(inner)
		}
	}
}

// lookup returns fn's translation, or nil if fn is not part of the
// program's module (or no module is loaded).
func (p *Program) lookup(fn *bytecode.Function) *code {
	if p == nil {
		return nil
	}
	return p.code[fn]
}

// code is the translation of one function.
type code struct {
	fn  *bytecode.Function
	ops []op
}

// op is one translated instruction, the category it is charged as and
// its source line.
type op struct {
	cat  bytecode.Category
	line int
	run  step
}

// step executes one translated instruction and advances f.pc.
type step func(f *frame)

// frame is the register file of one activation.
type frame struct {
	v      *VM
	code   *code
	prof   *Profile
	tier   Tier
	locals []Slot
	stack  []Slot
	pc     int
	done   bool
	ret    Slot
	err    error
}

func (f *frame) push(s Slot) { f.stack = append(f.stack, s) }

func (f *frame) pop() Slot {
	s := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return s
}

func (f *frame) popValues(n int) []lang.Value {
	vals := values(f.stack[len(f.stack)-n:])
	f.stack = f.stack[:len(f.stack)-n]
	return vals
}

// fail ends the activation with err, raised by the op at f.pc.
func (f *frame) fail(err error) {
	f.err = fmt.Errorf("vm: line %d: %w", f.code.ops[f.pc].line, err)
	f.done = true
}

// fold replaces the top two operands with an op's value; it inlines.
func (f *frame) fold(val Slot) {
	n := len(f.stack)
	f.stack[n-2] = val
	f.stack = f.stack[:n-1]
	f.pc++
}

// branch jumps to target if cond holds and falls through otherwise.
func (f *frame) branch(cond bool, target int) {
	if cond {
		f.pc = target
	} else {
		f.pc++
	}
}

// result pushes an op's value and moves on, or fails with its error.
func (f *frame) result(val Slot, err error) {
	if err != nil {
		f.fail(err)
		return
	}
	f.push(val)
	f.pc++
}

// stackReserve is the operand-stack capacity an activation starts with;
// deeper expressions grow it.
const stackReserve = 16

// run executes c in tier for an activation the caller has entered. args
// may be nil for a module top level. Locals and operand stack share one
// allocation; the frame itself is the VM's, one per call depth.
func (v *VM) run(c *code, tier Tier, prof *Profile, args []lang.Value) (lang.Value, error) {
	n := c.fn.NumLocals
	buf := make([]Slot, n, n+stackReserve)
	for len(v.frames) < v.depth {
		v.frames = append(v.frames, new(frame))
	}
	f := v.frames[v.depth-1]
	*f = frame{v: v, code: c, prof: prof, tier: tier, locals: buf[:n:n], stack: buf[n:]}
	for i, a := range args {
		f.locals[i] = SlotOf(a)
	}
	for !f.done && f.pc < len(c.ops) { // falling off the end returns null
		o := &c.ops[f.pc]
		if err := v.countStep(tier, o.cat); err != nil {
			f.err = fmt.Errorf("%w (in %s)", err, c.fn.Name)
			break
		}
		o.run(f)
	}
	ret, err := f.ret, f.err
	*f = frame{}
	if err != nil {
		return nil, err
	}
	return ret.Value(), nil
}

// intFast holds the integer fast paths, taken whenever both operands
// are ints. Operators without an entry (and every other operand pair)
// take BinaryOp.
var intFast = map[bytecode.Op]func(a, b int64) Slot{
	bytecode.OpAdd: func(a, b int64) Slot { return Int(a + b) },
	bytecode.OpSub: func(a, b int64) Slot { return Int(a - b) },
	bytecode.OpMul: func(a, b int64) Slot { return Int(a * b) },
	bytecode.OpLt:  func(a, b int64) Slot { return Bool(a < b) },
	bytecode.OpLte: func(a, b int64) Slot { return Bool(a <= b) },
	bytecode.OpGt:  func(a, b int64) Slot { return Bool(a > b) },
	bytecode.OpGte: func(a, b int64) Slot { return Bool(a >= b) },
}

// translate returns the step executing ins, an instruction of fn.
func translate(fn *bytecode.Function, ins bytecode.Instr) step {
	a := ins.A
	switch ins.Op {
	case bytecode.OpConst:
		k := SlotOf(fn.Consts[a])
		return func(f *frame) { f.push(k); f.pc++ }
	case bytecode.OpNull:
		return func(f *frame) { f.push(Slot{}); f.pc++ }
	case bytecode.OpTrue:
		return func(f *frame) { f.push(Bool(true)); f.pc++ }
	case bytecode.OpFalse:
		return func(f *frame) { f.push(Bool(false)); f.pc++ }
	case bytecode.OpPop:
		return func(f *frame) { f.pop(); f.pc++ }
	case bytecode.OpDup:
		return func(f *frame) { f.push(f.stack[len(f.stack)-1]); f.pc++ }
	case bytecode.OpLoadLocal:
		return func(f *frame) { f.push(f.locals[a]); f.pc++ }
	case bytecode.OpStoreLocal:
		return func(f *frame) { f.locals[a] = f.pop(); f.pc++ }
	case bytecode.OpLoadGlobal:
		name := fn.Consts[a].(string)
		return func(f *frame) {
			val, ok := f.v.Globals[name]
			if !ok {
				f.fail(fmt.Errorf("undefined variable %q", name))
				return
			}
			f.push(SlotOf(val))
			f.pc++
		}
	case bytecode.OpStoreGlobal:
		name := fn.Consts[a].(string)
		return func(f *frame) { f.v.Globals[name] = f.pop().Value(); f.pc++ }

	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpEq, bytecode.OpNeq, bytecode.OpLt, bytecode.OpLte, bytecode.OpGt, bytecode.OpGte:
		binop := ins.Op
		generic := func(f *frame) {
			n := len(f.stack)
			if val, err := BinaryOp(binop, f.stack[n-2], f.stack[n-1]); err != nil {
				f.fail(err)
			} else {
				f.fold(val)
			}
		}
		fast := intFast[binop]
		if fast == nil {
			return generic
		}
		return func(f *frame) {
			n := len(f.stack)
			if left, right := f.stack[n-2], f.stack[n-1]; left.IsInt() && right.IsInt() {
				f.fold(fast(left.Int64(), right.Int64()))
				return
			}
			generic(f)
		}
	case bytecode.OpNeg:
		return func(f *frame) { f.result(Negate(f.pop())) }
	case bytecode.OpNot:
		return func(f *frame) { f.push(Bool(!f.pop().Truthy())); f.pc++ }

	case bytecode.OpJump:
		return func(f *frame) { f.pc = a }
	case bytecode.OpLoop:
		// Only interpreted loops feed the tier-up profile.
		return func(f *frame) {
			if f.tier == TierInterp {
				f.prof.LoopBackEdges++
				if f.v.JIT != nil {
					f.v.JIT.OnLoopBack(f.v, f.code.fn, f.prof)
				}
			}
			f.pc = a
		}
	case bytecode.OpJumpIfFalse:
		return func(f *frame) { f.branch(!f.pop().Truthy(), a) }
	case bytecode.OpJumpIfTrue:
		return func(f *frame) { f.branch(f.pop().Truthy(), a) }

	case bytecode.OpCall:
		return func(f *frame) {
			args := f.popValues(a)
			val, err := f.v.CallValue(f.pop().Value(), args)
			if err != nil {
				f.err = err
				f.done = true
				return
			}
			f.push(SlotOf(val))
			f.pc++
		}
	case bytecode.OpReturn:
		return func(f *frame) { f.ret = f.pop(); f.done = true }

	case bytecode.OpMakeList:
		return func(f *frame) {
			f.push(Slot{kind: lang.TList, ref: &lang.List{Items: f.popValues(a)}})
			f.pc++
		}
	case bytecode.OpMakeMap:
		return func(f *frame) {
			m, err := MakeMap(f.popValues(2 * a))
			f.result(Slot{kind: lang.TMap, ref: m}, err)
		}
	case bytecode.OpIndex:
		return func(f *frame) {
			n := len(f.stack)
			if val, err := Index(f.stack[n-2], f.stack[n-1]); err != nil {
				f.fail(err)
			} else {
				f.fold(val)
			}
		}
	case bytecode.OpSetIndex:
		return func(f *frame) {
			val := f.pop()
			key := f.pop()
			container := f.pop()
			if err := SetIndex(container, key, val); err != nil {
				f.fail(err)
				return
			}
			f.pc++
		}
	case bytecode.OpIterNew:
		return func(f *frame) { f.result(newIter(f.pop())) }
	case bytecode.OpIterNext:
		return func(f *frame) {
			if item, ok := iterNext(f.stack[len(f.stack)-1]); ok {
				f.push(item)
				f.pc++
			} else {
				f.pop() // discard the exhausted iterator
				f.pc = a
			}
		}
	case bytecode.OpClosure:
		inner := fn.Consts[a].(*bytecode.Function)
		return func(f *frame) { f.push(SlotOf(&bytecode.Closure{Fn: inner})); f.pc++ }
	default:
		bad := ins.Op
		return func(f *frame) { f.fail(fmt.Errorf("unknown opcode %s", bad)) }
	}
}
