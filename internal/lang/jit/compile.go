package jit

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
	"repro/internal/lang/vm"
)

// state is the register file of one compiled-function activation.
type state struct {
	v      *vm.VM
	locals []vm.Slot
	stack  []vm.Slot
	pc     int
	done   bool
	ret    vm.Slot
	err    error
}

func (s *state) push(v vm.Slot) { s.stack = append(s.stack, v) }

func (s *state) pop() vm.Slot {
	v := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return v
}

func (s *state) popValues(n int) []lang.Value {
	vals := vm.Values(s.stack[len(s.stack)-n:])
	s.stack = s.stack[:len(s.stack)-n]
	return vals
}

func (s *state) fail(line int, err error) {
	s.err = fmt.Errorf("line %d: %w", line, err)
	s.done = true
}

// step executes one translated instruction and advances s.pc.
type step func(s *state)

// compiledFunc is the JITted form of one function: a direct-threaded
// slice of closures plus the entry type guards it was specialized for.
type compiledFunc struct {
	fn     *bytecode.Function
	guards []lang.Type
	steps  []step
	cats   []bytecode.Category
}

// Run implements vm.Compiled.
func (c *compiledFunc) Run(v *vm.VM, args []lang.Value) (lang.Value, bool, error) {
	if c.guards != nil {
		if len(args) != len(c.guards) {
			return nil, true, nil
		}
		for i := range args {
			if lang.TypeOf(args[i]) != c.guards[i] {
				return nil, true, nil
			}
		}
	}
	s := &state{
		v:      v,
		locals: make([]vm.Slot, c.fn.NumLocals),
		stack:  make([]vm.Slot, 0, 16),
	}
	for i, a := range args {
		s.locals[i] = vm.SlotOf(a)
	}
	for !s.done {
		if s.pc >= len(c.steps) {
			break // fall off the end: implicit return null
		}
		if err := v.CountStep(vm.TierJIT, c.cats[s.pc]); err != nil {
			return nil, false, err
		}
		c.steps[s.pc](s)
	}
	if s.err != nil {
		return nil, false, fmt.Errorf("jit %s: %w", c.fn.Name, s.err)
	}
	return s.ret.Value(), false, nil
}

// compile translates fn's bytecode into direct-threaded closures.
func compile(fn *bytecode.Function, guards []lang.Type) *compiledFunc {
	c := &compiledFunc{
		fn:     fn,
		guards: guards,
		steps:  make([]step, len(fn.Code)),
		cats:   make([]bytecode.Category, len(fn.Code)),
	}
	for i, ins := range fn.Code {
		c.cats[i] = bytecode.CategoryOf(ins.Op)
		c.steps[i] = translate(fn, ins)
	}
	return c
}

// intFast holds the speculative int64 paths — the common case in the
// numeric benchmarks the JIT exists for. Operators without an entry
// (and every non-int operand pair) take the interpreter's BinaryOp.
var intFast = map[bytecode.Op]func(a, b int64) vm.Slot{
	bytecode.OpAdd: func(a, b int64) vm.Slot { return vm.Int(a + b) },
	bytecode.OpSub: func(a, b int64) vm.Slot { return vm.Int(a - b) },
	bytecode.OpMul: func(a, b int64) vm.Slot { return vm.Int(a * b) },
	bytecode.OpLt:  func(a, b int64) vm.Slot { return vm.Bool(a < b) },
	bytecode.OpLte: func(a, b int64) vm.Slot { return vm.Bool(a <= b) },
	bytecode.OpGt:  func(a, b int64) vm.Slot { return vm.Bool(a > b) },
	bytecode.OpGte: func(a, b int64) vm.Slot { return vm.Bool(a >= b) },
}

func translate(fn *bytecode.Function, ins bytecode.Instr) step {
	a := ins.A
	line := ins.Line
	switch ins.Op {
	case bytecode.OpConst:
		v := vm.SlotOf(fn.Consts[a])
		return func(s *state) { s.push(v); s.pc++ }
	case bytecode.OpNull:
		return func(s *state) { s.push(vm.Slot{}); s.pc++ }
	case bytecode.OpTrue:
		return func(s *state) { s.push(vm.Bool(true)); s.pc++ }
	case bytecode.OpFalse:
		return func(s *state) { s.push(vm.Bool(false)); s.pc++ }
	case bytecode.OpPop:
		return func(s *state) { s.pop(); s.pc++ }
	case bytecode.OpDup:
		return func(s *state) { s.push(s.stack[len(s.stack)-1]); s.pc++ }
	case bytecode.OpLoadLocal:
		return func(s *state) { s.push(s.locals[a]); s.pc++ }
	case bytecode.OpStoreLocal:
		return func(s *state) { s.locals[a] = s.pop(); s.pc++ }
	case bytecode.OpLoadGlobal:
		name := fn.Consts[a].(string)
		return func(s *state) {
			v, ok := s.v.Globals[name]
			if !ok {
				s.fail(line, fmt.Errorf("undefined variable %q", name))
				return
			}
			s.push(vm.SlotOf(v))
			s.pc++
		}
	case bytecode.OpStoreGlobal:
		name := fn.Consts[a].(string)
		return func(s *state) { s.v.Globals[name] = s.pop().Value(); s.pc++ }

	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpEq, bytecode.OpNeq, bytecode.OpLt, bytecode.OpLte, bytecode.OpGt, bytecode.OpGte:
		op := ins.Op
		generic := func(s *state) {
			right := s.pop()
			left := s.pop()
			v, err := vm.BinaryOp(op, left, right)
			if err != nil {
				s.fail(line, err)
				return
			}
			s.push(v)
			s.pc++
		}
		fast := intFast[op]
		if fast == nil {
			return generic
		}
		return func(s *state) {
			n := len(s.stack)
			if left, right := s.stack[n-2], s.stack[n-1]; left.IsInt() && right.IsInt() {
				s.stack[n-2] = fast(left.Int64(), right.Int64())
				s.stack = s.stack[:n-1]
				s.pc++
				return
			}
			generic(s)
		}
	case bytecode.OpNeg:
		return func(s *state) {
			v, err := vm.Negate(s.pop())
			if err != nil {
				s.fail(line, err)
				return
			}
			s.push(v)
			s.pc++
		}
	case bytecode.OpNot:
		return func(s *state) { s.push(vm.Bool(!s.pop().Truthy())); s.pc++ }

	case bytecode.OpJump, bytecode.OpLoop:
		return func(s *state) { s.pc = a }
	case bytecode.OpJumpIfFalse:
		return func(s *state) {
			if !s.pop().Truthy() {
				s.pc = a
			} else {
				s.pc++
			}
		}
	case bytecode.OpJumpIfTrue:
		return func(s *state) {
			if s.pop().Truthy() {
				s.pc = a
			} else {
				s.pc++
			}
		}

	case bytecode.OpCall:
		return func(s *state) {
			args := s.popValues(a)
			v, err := s.v.CallValue(s.pop().Value(), args)
			if err != nil {
				s.err = err
				s.done = true
				return
			}
			s.push(vm.SlotOf(v))
			s.pc++
		}
	case bytecode.OpReturn:
		return func(s *state) {
			s.ret = s.pop()
			s.done = true
		}

	case bytecode.OpMakeList:
		return func(s *state) {
			s.push(vm.SlotOf(&lang.List{Items: s.popValues(a)}))
			s.pc++
		}
	case bytecode.OpMakeMap:
		return func(s *state) {
			m, err := vm.MakeMap(s.popValues(2 * a))
			if err != nil {
				s.fail(line, err)
				return
			}
			s.push(vm.SlotOf(m))
			s.pc++
		}
	case bytecode.OpIndex:
		return func(s *state) {
			key := s.pop()
			container := s.pop()
			v, err := vm.Index(container, key)
			if err != nil {
				s.fail(line, err)
				return
			}
			s.push(v)
			s.pc++
		}
	case bytecode.OpSetIndex:
		return func(s *state) {
			val := s.pop()
			key := s.pop()
			container := s.pop()
			if err := vm.SetIndex(container, key, val); err != nil {
				s.fail(line, err)
				return
			}
			s.pc++
		}
	case bytecode.OpIterNew:
		return func(s *state) {
			it, err := vm.NewIter(s.pop())
			if err != nil {
				s.fail(line, err)
				return
			}
			s.push(it)
			s.pc++
		}
	case bytecode.OpIterNext:
		return func(s *state) {
			if item, ok := vm.IterNext(s.stack[len(s.stack)-1]); ok {
				s.push(item)
				s.pc++
			} else {
				s.pop()
				s.pc = a
			}
		}
	case bytecode.OpClosure:
		inner := fn.Consts[a].(*bytecode.Function)
		return func(s *state) { s.push(vm.SlotOf(&bytecode.Closure{Fn: inner})); s.pc++ }
	default:
		op := ins.Op
		return func(s *state) { s.fail(line, fmt.Errorf("unknown opcode %s", op)) }
	}
}
