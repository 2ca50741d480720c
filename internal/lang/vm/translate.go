package vm

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
)

// Program is the translation of the loaded module: every function
// verified and rewritten into register form, which VM.run executes. It is
// the one engine both tiers run; the tier decides only which rates the
// ops are charged at, whether loop back-edges feed the profile, and (for
// the JIT) which entry guards are checked first. A Program is immutable
// once built, so every VM revived from one snapshot shares it without
// locks.
type Program struct {
	code map[*bytecode.Function]*code
}

// translateModule verifies and translates mod's top level and every
// function reachable from it, including function literals.
func translateModule(mod *bytecode.Module) (*Program, error) {
	p := &Program{code: make(map[*bytecode.Function]*code, len(mod.Functions)+1)}
	e := &emitter{}
	for _, fn := range append([]*bytecode.Function{mod.TopLevel}, mod.Functions...) {
		if err := p.add(e, fn); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// lookup returns fn's translation, or nil if fn is not part of the
// program's module (or no module is loaded).
func (p *Program) lookup(fn *bytecode.Function) *code {
	if p == nil {
		return nil
	}
	return p.code[fn]
}

// code is the register form of one function. An activation's slots are
// its locals, then the function's constants, then null, true and false,
// then one slot per operand-stack position; slots is what they start as.
type code struct {
	fn     *bytecode.Function
	slots  []Slot
	instrs []instr
	blocks []block
}

// block is a basic block of the bytecode: the ops at pc start to end-1
// run in sequence, entered only at start, at stack depth depth. counts
// is how many of each cost category they are.
type block struct {
	start, end, depth int32
	counts            [bytecode.NumCategories]int32
}

// instr is one register instruction. a, b and c are slot indexes, except
// where the op list below says otherwise; pc is the bytecode op it
// executes (the first, where it stands for several), whose line an error
// reports.
type instr struct {
	op      rop
	sub     bytecode.Op
	a, b, c int32
	pc      int32
}

type rop uint8

// Register ops. The ops from opJump on are the jumps: their target, a,
// is an index into code.instrs.
const (
	opBlock    rop = iota // charge blocks[a], b ops long
	opMove                // s[a] = s[b]
	opBin                 // s[a] = s[b] sub s[c]
	opIndex               // s[a] = s[b][s[c]]
	opSetIndex            // s[b][s[c]] = s[a]
	opNeg                 // s[a] = -s[b]
	opNot                 // s[a] = !s[b]
	opLoadG               // s[a] = globals[Consts[c]]
	opStoreG              // globals[Consts[a]] = s[b]
	opCall                // s[b] = s[b](s[b+1 : b+1+a])
	opRet                 // return s[b]
	opList                // s[a] = [s[b : b+c]]
	opMap                 // s[a] = {s[b : b+2c]}
	opIter                // s[a] = iterator over s[b]
	opClosure             // s[a] = closure over Consts[c]
	opLimit               // fail at the step limit
	opJump                // goto a
	opLoop                // goto a, a loop back-edge
	opJumpF               // if !s[b] goto a
	opJumpT               // if s[b] goto a
	opCmpBr               // if !(s[b] sub s[c]) goto a
	opNext                // s[b+1] = next item of iterator s[b], or clear s[b] and goto a
)

// info is, per bytecode op, the register op that executes it (none for
// the ops the emitter only records) and its stack effect on the
// fall-through path: it pops perA*A+pop operands and pushes push (NEXT's
// jump pops its iterator instead). The verifier and the emitter share it.
var info = [...]struct {
	rop             rop
	perA, pop, push int8
}{
	bytecode.OpConst: {0, 0, 0, 1}, bytecode.OpNull: {0, 0, 0, 1}, bytecode.OpTrue: {0, 0, 0, 1},
	bytecode.OpFalse: {0, 0, 0, 1}, bytecode.OpPop: {0, 0, 1, 0}, bytecode.OpLoadLocal: {0, 0, 0, 1},
	bytecode.OpStoreLocal: {opMove, 0, 1, 0}, bytecode.OpLoadGlobal: {opLoadG, 0, 0, 1}, bytecode.OpStoreGlobal: {opStoreG, 0, 1, 0},
	bytecode.OpAdd: {opBin, 0, 2, 1}, bytecode.OpSub: {opBin, 0, 2, 1}, bytecode.OpMul: {opBin, 0, 2, 1},
	bytecode.OpDiv: {opBin, 0, 2, 1}, bytecode.OpMod: {opBin, 0, 2, 1}, bytecode.OpEq: {opBin, 0, 2, 1},
	bytecode.OpNeq: {opBin, 0, 2, 1}, bytecode.OpLt: {opBin, 0, 2, 1}, bytecode.OpLte: {opBin, 0, 2, 1},
	bytecode.OpGt: {opBin, 0, 2, 1}, bytecode.OpGte: {opBin, 0, 2, 1}, bytecode.OpNeg: {opNeg, 0, 1, 1},
	bytecode.OpNot: {opNot, 0, 1, 1}, bytecode.OpJump: {opJump, 0, 0, 0}, bytecode.OpJumpIfFalse: {opJumpF, 0, 1, 0},
	bytecode.OpJumpIfTrue: {opJumpT, 0, 1, 0}, bytecode.OpDup: {0, 0, 1, 2}, bytecode.OpLoop: {opLoop, 0, 0, 0},
	bytecode.OpCall: {opCall, 1, 1, 1}, bytecode.OpReturn: {opRet, 0, 1, 0}, bytecode.OpMakeList: {opList, 1, 0, 1},
	bytecode.OpMakeMap: {opMap, 2, 0, 1}, bytecode.OpIndex: {opIndex, 0, 2, 1}, bytecode.OpSetIndex: {opSetIndex, 0, 3, 0},
	bytecode.OpIterNew: {opIter, 0, 1, 1}, bytecode.OpIterNext: {opNext, 0, 1, 2}, bytecode.OpClosure: {opClosure, 0, 0, 1},
}

// effect returns how many operands ins pops and pushes.
func effect(ins bytecode.Instr) (pop, push int) {
	e := &info[ins.Op]
	return int(e.perA)*ins.A + int(e.pop), int(e.push)
}

// verify checks fn's bytecode and computes its operand-stack depths. It
// fills depth (len(fn.Code) entries) with the depth before each op, -1
// where unreachable, and returns the maximum depth. It rejects an unknown
// op, an out-of-range local, constant or jump target, an underflow, and
// two paths that reach one op at different depths.
func verify(fn *bytecode.Function, depth []int32) (int32, error) {
	code := fn.Code
	fail := func(pc int, format string, args ...any) (int32, error) {
		return 0, fmt.Errorf("vm: %s: pc %d: %s: %s", fn.Name, pc, code[pc].Op, fmt.Sprintf(format, args...))
	}
	for pc, ins := range code {
		depth[pc] = -1
		limit := -1
		switch ins.Op {
		case bytecode.OpLoadLocal, bytecode.OpStoreLocal:
			limit = fn.NumLocals
		case bytecode.OpConst, bytecode.OpLoadGlobal, bytecode.OpStoreGlobal, bytecode.OpClosure:
			limit = len(fn.Consts)
		case bytecode.OpJump, bytecode.OpLoop, bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue, bytecode.OpIterNext:
			limit = len(code) + 1 // the end: returns null
		case bytecode.OpCall, bytecode.OpMakeList, bytecode.OpMakeMap:
			limit = 1 << 30
		}
		if int(ins.Op) >= len(info) {
			return fail(pc, "unknown opcode")
		} else if limit >= 0 && (ins.A < 0 || ins.A >= limit) {
			return fail(pc, "operand %d out of range", ins.A)
		}
		switch ins.Op {
		case bytecode.OpLoadGlobal, bytecode.OpStoreGlobal:
			if _, ok := fn.Consts[ins.A].(string); !ok {
				return fail(pc, "constant %d is not a name", ins.A)
			}
		case bytecode.OpClosure:
			if _, ok := fn.Consts[ins.A].(*bytecode.Function); !ok {
				return fail(pc, "constant %d is not a function", ins.A)
			}
		}
	}
	var work []int
	flow := func(to int, d int32) bool {
		if to == len(code) {
			return true
		}
		if depth[to] < 0 {
			depth[to] = d
			work = append(work, to)
		}
		return depth[to] == d
	}
	var maxDepth int32
	if len(code) > 0 {
		flow(0, 0)
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		ins, d := code[pc], depth[pc]
		pop, push := effect(ins)
		if int(d) < pop {
			return fail(pc, "stack underflow: depth %d, pops %d", d, pop)
		}
		next := d - int32(pop) + int32(push)
		maxDepth = max(maxDepth, next)
		joined := true
		switch ins.Op {
		case bytecode.OpJump, bytecode.OpLoop:
			joined = flow(ins.A, next)
		case bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue:
			joined = flow(ins.A, next) && flow(pc+1, next)
		case bytecode.OpIterNext:
			joined = flow(ins.A, d-1) && flow(pc+1, next)
		case bytecode.OpReturn:
		default:
			joined = flow(pc+1, next)
		}
		if !joined {
			return fail(pc, "paths join at different stack depths")
		}
	}
	return maxDepth, nil
}

// add verifies fn, translates it and every function literal among its
// constants, and records them in p.
func (p *Program) add(e *emitter, fn *bytecode.Function) error {
	if _, ok := p.code[fn]; ok {
		return nil
	}
	ops := fn.Code
	depth := make([]int32, len(ops))
	maxDepth, err := verify(fn, depth)
	if err != nil {
		return err
	}
	e.reset(fn)
	c := &code{fn: fn, slots: make([]Slot, int(e.base+maxDepth))}
	for i, k := range fn.Consts {
		c.slots[fn.NumLocals+i] = SlotOf(k)
	}
	c.slots[e.base-2], c.slots[e.base-1] = Bool(true), Bool(false)

	// A block starts at pc 0, at every jump target, and after every op
	// that transfers control — a call included, so that the ops pending
	// when a native, a compile or a deopt reads the clock are exactly
	// those executed before it.
	leader := make([]bool, len(ops)+1)
	leader[0] = true
	for pc, ins := range ops {
		switch ins.Op {
		case bytecode.OpJump, bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue, bytecode.OpLoop, bytecode.OpIterNext:
			leader[ins.A] = true
			leader[pc+1] = true
		case bytecode.OpCall, bytecode.OpReturn:
			leader[pc+1] = true
		}
	}
	at := make([]int32, len(ops)+1) // a block's first instruction, by its start pc
	for start := 0; start < len(ops); {
		end := start + 1
		for !leader[end] {
			end++
		}
		if depth[start] >= 0 { // reachable
			b := block{start: int32(start), end: int32(end), depth: depth[start]}
			for _, ins := range ops[start:end] {
				b.counts[bytecode.CategoryOf(ins.Op)]++
			}
			at[start] = int32(len(e.out))
			e.out = append(e.out, instr{op: opBlock, a: int32(len(c.blocks)), b: int32(end - start)})
			c.blocks = append(c.blocks, b)
			e.emit(start, end, b.depth)
		}
		start = end
	}
	at[len(ops)] = int32(len(e.out))
	e.out = append(e.out, instr{op: opRet, b: e.base - 3}) // falling off the end returns null
	for i := range e.out {
		if in := &e.out[i]; in.op >= opJump {
			in.a = at[in.a]
		}
	}
	c.instrs = append([]instr(nil), e.out...)
	p.code[fn] = c
	for _, k := range fn.Consts {
		if inner, ok := k.(*bytecode.Function); ok {
			if err := p.add(e, inner); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitter rewrites straight-line bytecode into register instructions.
// src holds, per live operand-stack position, the slot its value is in:
// CONST, LOADL, NULL, TRUE, FALSE, DUP and POP only edit src, and a
// position is settled into its own slot (base plus its depth) where a
// block ends or an op needs it there.
type emitter struct {
	fn   *bytecode.Function
	base int32 // the slot of stack position 0
	src  []int32
	out  []instr
}

func (e *emitter) reset(fn *bytecode.Function) {
	e.fn, e.base, e.out = fn, int32(fn.NumLocals+len(fn.Consts)+3), e.out[:0]
}

func (e *emitter) add(in instr) { e.out = append(e.out, in) }

// settle moves every position that is not in its own slot there, or
// only those reading slot z when z >= 0 (before z is written). No
// position reads another's own slot unless that one is settled, so the
// order of the moves does not matter.
func (e *emitter) settle(z int32) {
	for p, x := range e.src {
		if own := e.base + int32(p); x != own && (z < 0 || x == z) {
			e.add(instr{op: opMove, a: own, b: x})
			e.src[p] = own
		}
	}
}

// result appends in, which yields a value: into local z when the block's
// next op is STOREL z (which it then stands for: result returns its pc),
// else into the new top position's own slot.
func (e *emitter) result(in instr, pc, end int) int {
	if next := pc + 1; next < end && e.fn.Code[next].Op == bytecode.OpStoreLocal {
		in.a = int32(e.fn.Code[next].A)
		e.settle(in.a)
		e.add(in)
		return next
	}
	in.a = e.base + int32(len(e.src))
	e.add(in)
	e.src = append(e.src, in.a)
	return pc
}

// emit appends the register code of the ops at pc start to end-1, which
// run in sequence from stack depth d with every position settled, and
// settles every position where they end.
func (e *emitter) emit(start, end int, d int32) {
	e.src = e.src[:0]
	for p := int32(0); p < d; p++ {
		e.src = append(e.src, e.base+p)
	}
	for pc := start; pc < end; pc++ {
		ins := e.fn.Code[pc]
		op, a := ins.Op, int32(ins.A)
		switch op {
		case bytecode.OpCall, bytecode.OpMakeList, bytecode.OpMakeMap, bytecode.OpIterNext, bytecode.OpJump, bytecode.OpLoop:
			e.settle(-1) // operands contiguous in their own slots, or a block exit
		}
		pop, _ := effect(ins)
		n := len(e.src) - pop
		var o [3]int32 // the first three operands
		copy(o[:], e.src[n:])
		e.src = e.src[:n]
		in := instr{op: info[op].rop, sub: op, a: a, b: o[0], c: o[1], pc: int32(pc)}
		switch op {
		case bytecode.OpConst:
			e.src = append(e.src, int32(e.fn.NumLocals)+a)
		case bytecode.OpNull, bytecode.OpTrue, bytecode.OpFalse:
			e.src = append(e.src, e.base-3+int32(op-bytecode.OpNull))
		case bytecode.OpLoadLocal:
			e.src = append(e.src, a)
		case bytecode.OpDup:
			e.src = append(e.src, o[0], o[0])
		case bytecode.OpPop:
		case bytecode.OpStoreLocal:
			if o[0] != a {
				e.settle(a)
				e.add(in)
			}
		case bytecode.OpSetIndex:
			in.a = o[2]
			e.add(in)
		case bytecode.OpStoreGlobal, bytecode.OpReturn, bytecode.OpJump, bytecode.OpLoop:
			e.add(in)
		case bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue:
			e.settle(-1)
			e.add(in)
		case bytecode.OpIterNext:
			e.add(in)
			e.src = append(e.src, o[0], o[0]+1)
		case bytecode.OpCall:
			e.add(in)
			e.src = append(e.src, o[0])
		default: // an op that yields a value
			if next := pc + 1; op >= bytecode.OpEq && op <= bytecode.OpGte && next < end && e.fn.Code[next].Op == bytecode.OpJumpIfFalse {
				e.settle(-1)
				in.op, in.a = opCmpBr, int32(e.fn.Code[next].A)
				e.add(in)
				pc = next
				continue
			}
			switch op {
			case bytecode.OpLoadGlobal, bytecode.OpClosure, bytecode.OpMakeList, bytecode.OpMakeMap:
				in.c = a
			}
			pc = e.result(in, pc, end)
		}
	}
	e.settle(-1)
}

// prefix translates the first k ops of b on their own, followed by the
// step-limit failure: the code a block runs when only k of its ops fit
// under MaxSteps. The ops are straight-line (a block's only control
// transfer is its last op), so the emitter's rules apply unchanged.
func (c *code) prefix(b *block, k int32) []instr {
	e := &emitter{}
	e.reset(c.fn)
	e.emit(int(b.start), int(b.start+k), b.depth)
	return append(e.out, instr{op: opLimit})
}

// run executes c in tier for an activation the caller has entered. args
// may be nil for a module top level. The activation's slots are its one
// allocation.
//
// A block is charged whole by its opBlock: one step-limit check, and
// its count vector added to the pending counts. Three rules keep this
// equal, at every point the clock can be read, to booking each op as it
// runs. Blocks end at every call, so a native, a compile or a deopt sees
// exactly the ops executed before it. An error uncharges the block's ops
// after the failing one. A block that would cross MaxSteps charges the k
// ops before the limit, runs the translation of just those (prefix), and
// then fails at the limit.
func (v *VM) run(c *code, tier Tier, prof *Profile, args []lang.Value) (lang.Value, error) {
	s := make([]Slot, len(c.slots))
	copy(s, c.slots)
	for i, a := range args {
		s[i] = SlotOf(a)
	}
	pending := &v.pending[tier]
	code, blocks, end := c.instrs, c.blocks, int32(0) // end: the charged block's end pc
	var err error
	for ip := 0; ; {
		in := &code[ip]
		ip++
		switch in.op {
		case opBlock:
			b := &blocks[in.a]
			if v.steps+int64(in.b) > v.MaxSteps {
				k := int32(max(v.MaxSteps-v.steps, 0))
				v.steps += int64(k)
				for _, ins := range c.fn.Code[b.start : b.start+k] {
					pending[bytecode.CategoryOf(ins.Op)]++
				}
				code, ip, end = c.prefix(b, k), 0, b.start+k
				continue
			}
			v.steps += int64(in.b)
			pending[0], pending[1] = pending[0]+int(b.counts[0]), pending[1]+int(b.counts[1])
			pending[2], pending[3] = pending[2]+int(b.counts[2]), pending[3]+int(b.counts[3])
			end = b.end
		case opMove:
			s[in.a] = s[in.b]
		case opBin:
			x, y := &s[in.b], &s[in.c]
			if x.kind == lang.TInt && y.kind == lang.TInt {
				i, j := int64(x.word), int64(y.word)
				switch in.sub {
				case bytecode.OpAdd:
					s[in.a] = Int(i + j)
					continue
				case bytecode.OpSub:
					s[in.a] = Int(i - j)
					continue
				case bytecode.OpMul:
					s[in.a] = Int(i * j)
					continue
				case bytecode.OpDiv, bytecode.OpMod:
					if j != 0 && in.sub == bytecode.OpDiv {
						s[in.a] = Int(i / j)
						continue
					} else if j != 0 {
						s[in.a] = Int(i % j)
						continue
					}
				case bytecode.OpEq, bytecode.OpNeq, bytecode.OpLt, bytecode.OpLte, bytecode.OpGt, bytecode.OpGte:
					s[in.a] = Bool(compareInts(in.sub, i, j))
					continue
				}
			}
			if s[in.a], err = BinaryOp(in.sub, *x, *y); err != nil {
				return v.fail(c, pending, in.pc, end, err)
			}
		case opCmpBr:
			if x, y := &s[in.b], &s[in.c]; x.kind != lang.TInt || y.kind != lang.TInt {
				val, err := BinaryOp(in.sub, *x, *y)
				if err != nil {
					return v.fail(c, pending, in.pc, end, err)
				}
				if val.word == 0 { // a comparison yields a bool
					ip = int(in.a)
				}
			} else if !compareInts(in.sub, int64(x.word), int64(y.word)) {
				ip = int(in.a)
			}
		case opIndex:
			if l, ok := s[in.b].ref.(*lang.List); ok && s[in.c].kind == lang.TInt {
				if i := int64(s[in.c].word); i >= 0 && i < int64(len(l.Items)) {
					if n, ok := l.Items[i].(int64); ok {
						s[in.a] = Int(n)
					} else {
						s[in.a] = SlotOf(l.Items[i])
					}
					continue
				}
			}
			if s[in.a], err = Index(s[in.b], s[in.c]); err != nil {
				return v.fail(c, pending, in.pc, end, err)
			}
		case opSetIndex:
			if err := SetIndex(s[in.b], s[in.c], s[in.a]); err != nil {
				return v.fail(c, pending, in.pc, end, err)
			}
		case opNeg:
			if s[in.a], err = Negate(s[in.b]); err != nil {
				return v.fail(c, pending, in.pc, end, err)
			}
		case opNot:
			s[in.a] = Bool(!s[in.b].Truthy())
		case opLoadG:
			name := c.fn.Consts[in.c].(string)
			val, ok := v.Globals[name]
			if !ok {
				return v.fail(c, pending, in.pc, end, fmt.Errorf("undefined variable %q", name))
			}
			s[in.a] = SlotOf(val)
		case opStoreG:
			v.Globals[c.fn.Consts[in.a].(string)] = s[in.b].Value()
		case opCall:
			val, err := v.CallValue(s[in.b].Value(), values(s[in.b+1:in.b+1+in.a]))
			if err != nil {
				return v.fail(c, pending, in.pc, end, err)
			}
			s[in.b] = SlotOf(val)
		case opRet:
			return s[in.b].Value(), nil
		case opList:
			s[in.a] = Slot{kind: lang.TList, ref: &lang.List{Items: values(s[in.b : in.b+in.c])}}
		case opMap:
			m, err := MakeMap(values(s[in.b : in.b+2*in.c]))
			if err != nil {
				return v.fail(c, pending, in.pc, end, err)
			}
			s[in.a] = Slot{kind: lang.TMap, ref: m}
		case opIter:
			if s[in.a], err = newIter(s[in.b]); err != nil {
				return v.fail(c, pending, in.pc, end, err)
			}
		case opClosure:
			s[in.a] = SlotOf(&bytecode.Closure{Fn: c.fn.Consts[in.c].(*bytecode.Function)})
		case opLimit:
			v.steps++
			return nil, fmt.Errorf("%w (in %s)", ErrTooManySteps, c.fn.Name)
		case opJump:
			ip = int(in.a)
		case opLoop:
			// Only interpreted loops feed the tier-up profile.
			if tier == TierInterp {
				prof.LoopBackEdges++
				if v.JIT != nil {
					v.JIT.OnLoopBack(v, c.fn, prof)
				}
			}
			ip = int(in.a)
		case opJumpF:
			if !s[in.b].Truthy() {
				ip = int(in.a)
			}
		case opJumpT:
			if s[in.b].Truthy() {
				ip = int(in.a)
			}
		case opNext:
			if item, ok := iterNext(s[in.b]); ok {
				s[in.b+1] = item
			} else {
				s[in.b] = Slot{} // the exhausted iterator is popped
				ip = int(in.a)
			}
		}
	}
}

// compareInts applies a comparison op to two ints.
func compareInts(op bytecode.Op, i, j int64) bool {
	switch op {
	case bytecode.OpEq:
		return i == j
	case bytecode.OpNeq:
		return i != j
	case bytecode.OpLt:
		return i < j
	case bytecode.OpLte:
		return i <= j
	case bytecode.OpGt:
		return i > j
	}
	return i >= j
}

// fail ends an activation with err, raised by the op at pc: the ops of
// the charged block after it, which never ran, are uncharged, and any
// error but a callee's is tagged with the op's line.
func (v *VM) fail(c *code, pending *[bytecode.NumCategories]int, pc, end int32, err error) (lang.Value, error) {
	for _, ins := range c.fn.Code[pc+1 : end] {
		v.steps--
		pending[bytecode.CategoryOf(ins.Op)]--
	}
	if op := c.fn.Code[pc].Op; op != bytecode.OpCall {
		err = fmt.Errorf("vm: line %d: %w", c.fn.Code[pc].Line, err)
	}
	return nil, err
}
