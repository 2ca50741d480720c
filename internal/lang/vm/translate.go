package vm

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
)

// Program is the translation of the loaded module: every function split
// into basic blocks, each a short slice of direct-threaded Go closures
// in which the commonest instruction shapes are fused. It is the one
// engine both tiers run; the tier decides only which rates the ops are
// charged at, whether loop back-edges feed the profile, and (for the
// JIT) which entry guards are checked first. A Program is immutable once
// built, so every VM revived from one snapshot shares it without locks.
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
	c := &code{fn: fn, slots: make([]Slot, fn.NumLocals+len(fn.Consts)), blockOf: make([]int32, len(fn.Code))}
	for i, k := range fn.Consts {
		c.slots[fn.NumLocals+i] = SlotOf(k)
	}
	c.split()
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
	fn *bytecode.Function
	// slots is what an activation's slots start as: its locals (null),
	// then the function's constants, which fused steps read like locals.
	slots   []Slot
	blockOf []int32 // per pc, the index of its block
	blocks  []block
}

// block is a basic block: the instructions at pc start to end-1 run in
// sequence, entered only at start and left only after end-1. Its steps
// execute those instructions, several fused into one where a shape
// allows; counts is how many of each cost category they are.
type block struct {
	start, end int32
	counts     [bytecode.NumCategories]int32
	steps      []step
}

// step executes one or more instructions of a block. f.pc holds the pc
// after the step's last instruction when it starts; a jump overwrites
// it, and so does a failure, with the failing instruction's pc. step
// reports false when the activation has ended (returned or failed).
type step func(f *frame) bool

// frame is the register file of one activation.
type frame struct {
	v    *VM
	code *code
	prof *Profile
	tier Tier
	// locals holds the activation's locals, then its function's
	// constants (code.slots).
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

// fail ends the activation with err, raised by the instruction at pc.
func (f *frame) fail(pc int, err error) bool {
	f.pc = pc
	f.err = fmt.Errorf("vm: line %d: %w", f.code.fn.Code[pc].Line, err)
	f.done = true
	return false
}

// fold replaces the top two operands with an op's value; it inlines.
func (f *frame) fold(val Slot) {
	n := len(f.stack)
	f.stack[n-2] = val
	f.stack = f.stack[:n-1]
}

// stackReserve is the operand-stack capacity an activation starts with;
// deeper expressions grow it.
const stackReserve = 16

// run executes c in tier for an activation the caller has entered. args
// may be nil for a module top level. Slots and operand stack share one
// allocation; the frame itself is the VM's, one per call depth.
//
// A block is charged whole before it runs: one step-limit check, and its
// count vector added to the pending counts. Three rules keep this equal,
// at every point the clock can be read, to booking each op as it runs.
// Blocks end at every call, so a native, a compile or a deopt sees
// exactly the ops executed before it. An error mid-block uncharges the
// ops after the failing one. A block that would cross MaxSteps runs op
// by op (runOps), so the limit stops the same op.
func (v *VM) run(c *code, tier Tier, prof *Profile, args []lang.Value) (lang.Value, error) {
	n := len(c.slots)
	buf := make([]Slot, n, n+stackReserve)
	copy(buf, c.slots)
	for len(v.frames) < v.depth {
		v.frames = append(v.frames, new(frame))
	}
	f := v.frames[v.depth-1]
	*f = frame{v: v, code: c, prof: prof, tier: tier, locals: buf[:n:n], stack: buf[n:]}
	for i, a := range args {
		f.locals[i] = SlotOf(a)
	}
	pending := &v.pending[tier]
blocks:
	for f.pc < len(c.blockOf) { // falling off the end returns null
		b := &c.blocks[c.blockOf[f.pc]]
		n := int64(b.end - b.start)
		if v.steps+n > v.MaxSteps {
			if err := v.runOps(f, b); err != nil {
				f.err = fmt.Errorf("%w (in %s)", err, c.fn.Name)
			}
			if f.done || f.err != nil {
				break
			}
			continue
		}
		v.steps += n
		for cat, k := range &b.counts {
			pending[cat] += int(k)
		}
		f.pc = int(b.end)
		for _, s := range b.steps {
			if !s(f) {
				for pc := f.pc + 1; f.err != nil && pc < int(b.end); pc++ {
					v.steps--
					pending[bytecode.CategoryOf(c.fn.Code[pc].Op)]--
				}
				break blocks
			}
		}
	}
	ret, err := f.ret, f.err
	*f = frame{}
	if err != nil {
		return nil, err
	}
	return ret.Value(), nil
}

// runOps runs b one unfused op at a time, each booked by countStep
// before it runs. It translates each op as it goes: a VM takes this
// path for at most the one block per call that meets its step limit.
func (v *VM) runOps(f *frame, b *block) error {
	fn := f.code.fn
	for pc := int(b.start); pc < int(b.end); pc++ {
		if err := v.countStep(f.tier, bytecode.CategoryOf(fn.Code[pc].Op)); err != nil {
			return err
		}
		f.pc = pc + 1
		if !translate(fn, pc, fn.Code[pc])(f) {
			break
		}
	}
	return nil
}

// split divides c into basic blocks and builds each block's steps. A
// block starts at pc 0, at every jump target, and after every
// instruction that transfers control — including a call, so that the
// ops pending when a native, a compile or a deopt reads the clock are
// exactly those executed before it.
func (c *code) split() {
	code := c.fn.Code
	leader := make([]bool, len(code)+1)
	leader[0] = true
	for pc, ins := range code {
		switch ins.Op {
		case bytecode.OpJump, bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue, bytecode.OpLoop, bytecode.OpIterNext:
			leader[ins.A] = true
			leader[pc+1] = true
		case bytecode.OpCall, bytecode.OpReturn:
			leader[pc+1] = true
		}
	}
	nblocks := 0
	for _, l := range leader[:len(code)] {
		if l {
			nblocks++
		}
	}
	// Installs translate on the request path: the blocks and all their
	// steps take one allocation each.
	c.blocks = make([]block, 0, nblocks)
	steps := make([]step, 0, len(code))
	for start := 0; start < len(code); {
		end := start + 1
		for !leader[end] {
			end++
		}
		b := block{start: int32(start), end: int32(end)}
		first := len(steps)
		for pc := start; pc < end; {
			s, n := c.fuse(pc, end)
			steps = append(steps, s)
			for ; n > 0; n-- {
				b.counts[bytecode.CategoryOf(code[pc].Op)]++
				c.blockOf[pc] = int32(len(c.blocks))
				pc++
			}
		}
		b.steps = steps[first:len(steps):len(steps)]
		c.blocks = append(c.blocks, b)
		start = end
	}
}

// fuse returns the step running the longest fusible shape at pc in a
// block ending at end, and how many instructions it covers. The shapes
// read operands from locals and constants instead of pushing them:
//
//	x y CMP JMPF t     x y BINOP STOREL z     x y BINOP     x y INDEX
//	y CMP JMPF t       y BINOP                y INDEX
//	CMP JMPF t         BINOP STOREL z
//
// where x and y are each a LOADL or a CONST, and a shape without x takes
// its left operand from the stack. A fused step that fails fails at its
// BINOP, CMP or INDEX, as the unfused ops would.
func (c *code) fuse(pc, end int) (step, int) {
	code := c.fn.Code
	at := func(i int) bytecode.Instr {
		if pc+i < end {
			return code[pc+i]
		}
		return bytecode.Instr{Op: bytecode.OpNull}
	}
	x, xok := c.operand(at(0))
	y, yok := c.operand(at(1))
	op2, op3 := at(2), at(3)
	switch {
	case xok && yok && isCompare(op2.Op) && op3.Op == bytecode.OpJumpIfFalse:
		return cmpBranch(op2.Op, x, y, pc+2, op3.A), 4
	case xok && yok && isBinary(op2.Op) && op3.Op == bytecode.OpStoreLocal:
		return binStore(op2.Op, x, y, pc+2, op3.A), 4
	case xok && yok && isBinary(op2.Op):
		return binPush(op2.Op, x, y, pc+2), 3
	case xok && yok && op2.Op == bytecode.OpIndex:
		return indexPush(x, y, pc+2), 3
	case xok && isCompare(at(1).Op) && op2.Op == bytecode.OpJumpIfFalse:
		return slotCmpBranch(at(1).Op, x, pc+1, op2.A), 3
	case xok && isBinary(at(1).Op):
		return slotBin(at(1).Op, x, pc+1), 2
	case xok && at(1).Op == bytecode.OpIndex:
		return indexTop(x, pc+1), 2
	case isCompare(at(0).Op) && at(1).Op == bytecode.OpJumpIfFalse:
		return topCmpBranch(at(0).Op, pc, at(1).A), 2
	case isBinary(at(0).Op) && at(1).Op == bytecode.OpStoreLocal:
		return topBinStore(at(0).Op, pc, at(1).A), 2
	}
	return translate(c.fn, pc, code[pc]), 1
}

// operand returns the slot a LOADL or CONST reads.
func (c *code) operand(ins bytecode.Instr) (int, bool) {
	switch ins.Op {
	case bytecode.OpLoadLocal:
		return ins.A, true
	case bytecode.OpConst:
		return c.fn.NumLocals + ins.A, true
	}
	return 0, false
}

func isBinary(o bytecode.Op) bool { return o >= bytecode.OpAdd && o <= bytecode.OpGte }

func isCompare(o bytecode.Op) bool { return o >= bytecode.OpEq && o <= bytecode.OpGte }

// The fused steps. at is the pc of the BINOP, CMP or INDEX; t a branch
// target; z a local.

func cmpBranch(cmp bytecode.Op, x, y, at, t int) step {
	return func(f *frame) bool {
		val, err := BinaryOp(cmp, f.locals[x], f.locals[y])
		if err != nil {
			return f.fail(at, err)
		}
		if val.word == 0 { // a comparison yields a bool
			f.pc = t
		}
		return true
	}
}

func binStore(bin bytecode.Op, x, y, at, z int) step {
	return func(f *frame) bool {
		val, err := BinaryOp(bin, f.locals[x], f.locals[y])
		if err != nil {
			return f.fail(at, err)
		}
		f.locals[z] = val
		return true
	}
}

func binPush(bin bytecode.Op, x, y, at int) step {
	return func(f *frame) bool {
		val, err := BinaryOp(bin, f.locals[x], f.locals[y])
		if err != nil {
			return f.fail(at, err)
		}
		f.push(val)
		return true
	}
}

func indexPush(x, y, at int) step {
	return func(f *frame) bool {
		val, err := Index(f.locals[x], f.locals[y])
		if err != nil {
			return f.fail(at, err)
		}
		f.push(val)
		return true
	}
}

func indexTop(y, at int) step {
	return func(f *frame) bool {
		top := len(f.stack) - 1
		val, err := Index(f.stack[top], f.locals[y])
		if err != nil {
			return f.fail(at, err)
		}
		f.stack[top] = val
		return true
	}
}

func slotCmpBranch(cmp bytecode.Op, y, at, t int) step {
	return func(f *frame) bool {
		top := len(f.stack) - 1
		val, err := BinaryOp(cmp, f.stack[top], f.locals[y])
		if err != nil {
			return f.fail(at, err)
		}
		f.stack = f.stack[:top]
		if val.word == 0 {
			f.pc = t
		}
		return true
	}
}

func slotBin(bin bytecode.Op, y, at int) step {
	return func(f *frame) bool {
		top := len(f.stack) - 1
		val, err := BinaryOp(bin, f.stack[top], f.locals[y])
		if err != nil {
			return f.fail(at, err)
		}
		f.stack[top] = val
		return true
	}
}

func topCmpBranch(cmp bytecode.Op, at, t int) step {
	return func(f *frame) bool {
		n := len(f.stack)
		val, err := BinaryOp(cmp, f.stack[n-2], f.stack[n-1])
		if err != nil {
			return f.fail(at, err)
		}
		f.stack = f.stack[:n-2]
		if val.word == 0 {
			f.pc = t
		}
		return true
	}
}

func topBinStore(bin bytecode.Op, at, z int) step {
	return func(f *frame) bool {
		n := len(f.stack)
		val, err := BinaryOp(bin, f.stack[n-2], f.stack[n-1])
		if err != nil {
			return f.fail(at, err)
		}
		f.stack = f.stack[:n-2]
		f.locals[z] = val
		return true
	}
}

// translate returns the unfused step executing ins, the instruction of
// fn at pc.
func translate(fn *bytecode.Function, pc int, ins bytecode.Instr) step {
	a := ins.A
	switch ins.Op {
	case bytecode.OpConst:
		k := SlotOf(fn.Consts[a])
		return func(f *frame) bool { f.push(k); return true }
	case bytecode.OpNull:
		return func(f *frame) bool { f.push(Slot{}); return true }
	case bytecode.OpTrue:
		return func(f *frame) bool { f.push(Bool(true)); return true }
	case bytecode.OpFalse:
		return func(f *frame) bool { f.push(Bool(false)); return true }
	case bytecode.OpPop:
		return func(f *frame) bool { f.pop(); return true }
	case bytecode.OpDup:
		return func(f *frame) bool { f.push(f.stack[len(f.stack)-1]); return true }
	case bytecode.OpLoadLocal:
		return func(f *frame) bool { f.push(f.locals[a]); return true }
	case bytecode.OpStoreLocal:
		return func(f *frame) bool { f.locals[a] = f.pop(); return true }
	case bytecode.OpLoadGlobal:
		name := fn.Consts[a].(string)
		return func(f *frame) bool {
			val, ok := f.v.Globals[name]
			if !ok {
				return f.fail(pc, fmt.Errorf("undefined variable %q", name))
			}
			f.push(SlotOf(val))
			return true
		}
	case bytecode.OpStoreGlobal:
		name := fn.Consts[a].(string)
		return func(f *frame) bool { f.v.Globals[name] = f.pop().Value(); return true }

	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpEq, bytecode.OpNeq, bytecode.OpLt, bytecode.OpLte, bytecode.OpGt, bytecode.OpGte:
		binop := ins.Op
		return func(f *frame) bool {
			n := len(f.stack)
			val, err := BinaryOp(binop, f.stack[n-2], f.stack[n-1])
			if err != nil {
				return f.fail(pc, err)
			}
			f.fold(val)
			return true
		}
	case bytecode.OpNeg:
		return func(f *frame) bool {
			val, err := Negate(f.pop())
			if err != nil {
				return f.fail(pc, err)
			}
			f.push(val)
			return true
		}
	case bytecode.OpNot:
		return func(f *frame) bool { f.push(Bool(!f.pop().Truthy())); return true }

	case bytecode.OpJump:
		return func(f *frame) bool { f.pc = a; return true }
	case bytecode.OpLoop:
		// Only interpreted loops feed the tier-up profile.
		return func(f *frame) bool {
			if f.tier == TierInterp {
				f.prof.LoopBackEdges++
				if f.v.JIT != nil {
					f.v.JIT.OnLoopBack(f.v, f.code.fn, f.prof)
				}
			}
			f.pc = a
			return true
		}
	case bytecode.OpJumpIfFalse:
		return func(f *frame) bool {
			if !f.pop().Truthy() {
				f.pc = a
			}
			return true
		}
	case bytecode.OpJumpIfTrue:
		return func(f *frame) bool {
			if f.pop().Truthy() {
				f.pc = a
			}
			return true
		}

	case bytecode.OpCall:
		return func(f *frame) bool {
			args := f.popValues(a)
			val, err := f.v.CallValue(f.pop().Value(), args)
			if err != nil {
				f.pc, f.err, f.done = pc, err, true
				return false
			}
			f.push(SlotOf(val))
			return true
		}
	case bytecode.OpReturn:
		return func(f *frame) bool { f.ret = f.pop(); f.done = true; return false }

	case bytecode.OpMakeList:
		return func(f *frame) bool {
			f.push(Slot{kind: lang.TList, ref: &lang.List{Items: f.popValues(a)}})
			return true
		}
	case bytecode.OpMakeMap:
		return func(f *frame) bool {
			m, err := MakeMap(f.popValues(2 * a))
			if err != nil {
				return f.fail(pc, err)
			}
			f.push(Slot{kind: lang.TMap, ref: m})
			return true
		}
	case bytecode.OpIndex:
		return func(f *frame) bool {
			n := len(f.stack)
			val, err := Index(f.stack[n-2], f.stack[n-1])
			if err != nil {
				return f.fail(pc, err)
			}
			f.fold(val)
			return true
		}
	case bytecode.OpSetIndex:
		return func(f *frame) bool {
			val := f.pop()
			key := f.pop()
			if err := SetIndex(f.pop(), key, val); err != nil {
				return f.fail(pc, err)
			}
			return true
		}
	case bytecode.OpIterNew:
		return func(f *frame) bool {
			it, err := newIter(f.pop())
			if err != nil {
				return f.fail(pc, err)
			}
			f.push(it)
			return true
		}
	case bytecode.OpIterNext:
		return func(f *frame) bool {
			if item, ok := iterNext(f.stack[len(f.stack)-1]); ok {
				f.push(item)
			} else {
				f.pop() // discard the exhausted iterator
				f.pc = a
			}
			return true
		}
	case bytecode.OpClosure:
		inner := fn.Consts[a].(*bytecode.Function)
		return func(f *frame) bool { f.push(SlotOf(&bytecode.Closure{Fn: inner})); return true }
	default:
		bad := ins.Op
		return func(f *frame) bool { return f.fail(pc, fmt.Errorf("unknown opcode %s", bad)) }
	}
}
