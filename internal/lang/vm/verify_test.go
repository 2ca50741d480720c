package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
)

// Operand bits of slotArgs.
const (
	argA = 1 << iota
	argB
	argC
)

// slotArgs marks, per register op, which of a, b and c are slot
// indexes.
var slotArgs = [numROps]uint8{
	opMove: argA | argB, opBin: argA | argB | argC, opIndex: argA | argB | argC,
	opSetIndex: argA | argB | argC, opNeg: argA | argB, opNot: argA | argB,
	opLoadG: argA, opStoreG: argB, opCall: argB, opRet: argB,
	opList: argA | argB, opMap: argA | argB, opIter: argA | argB, opClosure: argA,
	opJumpF: argB, opJumpT: argB, opCmpBr: argB | argC, opNext: argB,
}

// verify checks fn's register code and the functions among its
// constants: every slot index lies within the slot template, every jump
// lands on a block start, each block's counts sum to its length (and
// its opBlock charges that length), LOADG/STOREG name a string constant
// and CLOSURE a function constant, and each instruction executes an op
// of the table. It checks every instruction, reachable or not. That
// every label is reached at one stack depth the compiler asserts itself
// (errLabelDepth).
func verify(fn *Function) error {
	fail := func(i int, format string, args ...any) error {
		return fmt.Errorf("vm: %s: instr %d: %s", fn.Name, i, fmt.Sprintf(format, args...))
	}
	for i, b := range fn.blocks {
		var n int32
		for _, k := range b.counts {
			n += k
		}
		if b.start < 0 || b.end > int32(len(fn.ops)) || n != b.end-b.start || n <= 0 {
			return fmt.Errorf("vm: %s: block %d: ops %d to %d, counts %v", fn.Name, i, b.start, b.end, b.counts)
		}
	}
	isStart := func(j int32) bool { return j >= 0 && int(j) < len(fn.instrs) && fn.instrs[j].op == opBlock }
	inSlots := func(s, n int32) bool { return s >= 0 && n >= 0 && int(s+n) <= len(fn.slots) }
	isConst := func(k int32) bool { return k >= 0 && int(k) < len(fn.Consts) }
	for i, in := range fn.instrs {
		if in.op >= numROps {
			return fail(i, "unknown op %d", in.op)
		}
		for bit, s := range [3]int32{in.a, in.b, in.c} {
			if slotArgs[in.op]&(1<<bit) != 0 && !inSlots(s, 1) {
				return fail(i, "slot %d out of range", s)
			}
		}
		if in.op != opBlock && in.op != opMove && in.op != opLimit && (in.pc < 0 || int(in.pc) >= len(fn.ops)) {
			return fail(i, "op %d out of range", in.pc)
		}
		switch in.op {
		case opBlock:
			if in.a < 0 || int(in.a) >= len(fn.blocks) || in.b != fn.blocks[in.a].end-fn.blocks[in.a].start {
				return fail(i, "block %d of %d ops out of range", in.a, in.b)
			}
		case opCall:
			if in.a < 0 || !inSlots(in.b, in.a+1) {
				return fail(i, "call of %d args out of range", in.a)
			}
		case opList, opMap:
			if n := in.c * int32(in.op-opList+1); !inSlots(in.b, n) {
				return fail(i, "%d items out of range", in.c)
			}
		case opNext:
			if !inSlots(in.b, 2) {
				return fail(i, "iterator slots out of range")
			}
		case opLoadG, opStoreG:
			k := in.c
			if in.op == opStoreG {
				k = in.a
			}
			if !isConst(k) {
				return fail(i, "constant %d out of range", k)
			} else if _, ok := fn.Consts[k].(string); !ok {
				return fail(i, "constant %d is not a name", k)
			}
		case opClosure:
			if !isConst(in.c) {
				return fail(i, "constant %d out of range", in.c)
			} else if _, ok := fn.Consts[in.c].(*Function); !ok {
				return fail(i, "constant %d is not a function", in.c)
			}
		}
		if in.op >= opJump && !isStart(in.a) {
			return fail(i, "jump to %d, not a block start", in.a)
		}
	}
	for _, k := range fn.Consts {
		if inner, ok := k.(*Function); ok {
			if err := verify(inner); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestVerifierRejects hands the verifier bad register code of each kind
// it knows; each must be rejected. A one-block function body is
// {opBlock, the instruction under test}, with one local, one int
// constant and one stack slot.
func TestVerifierRejects(t *testing.T) {
	one := []instr{{op: opBlock, b: 1}}
	cases := []struct {
		name string
		code []instr
		want string
	}{
		{"bad local", append(one, instr{op: opMove, a: 0, b: 9}), "out of range"},
		{"negative local", append(one, instr{op: opMove, a: -1, b: 0}), "out of range"},
		{"bad const", append(one, instr{op: opLoadG, a: 0, c: 2}), "out of range"},
		{"global named by a non-string", append(one, instr{op: opLoadG, a: 0, c: 0}), "not a name"},
		{"closure over a non-function", append(one, instr{op: opClosure, a: 0, c: 0}), "not a function"},
		{"bad jump", append(one, instr{op: opJump, a: 9}), "not a block start"},
		{"bad jump in dead code", append(one, instr{op: opRet, b: 1}, instr{op: opJump, a: -1}), "not a block start"},
		{"jump into a block", append(one, instr{op: opJump, a: 1}), "not a block start"},
		{"bad call count", append(one, instr{op: opCall, a: -1, b: 0}), "out of range"},
		{"call past the slots", append(one, instr{op: opCall, a: 6, b: 0}), "out of range"},
		{"bad op index", append(one, instr{op: opRet, b: 1, pc: 3}), "out of range"},
		{"block longer than its ops", []instr{{op: opBlock, b: 2}, {op: opRet, b: 1}}, "block 0 of 2 ops"},
		{"unknown op", append(one, instr{op: 200}), "unknown op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fn := &Function{Name: "bad", NumLocals: 1, Consts: []lang.Value{int64(1)},
				ops: []opInfo{{}}, slots: make([]Slot, 6), instrs: tc.code,
				blocks: []block{{start: 0, end: 1, counts: [NumCategories]int32{1}}}}
			if err := verify(fn); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
	t.Run("counts that miss an op", func(t *testing.T) {
		fn := &Function{Name: "bad", ops: make([]opInfo, 2), blocks: []block{{start: 0, end: 2, counts: [NumCategories]int32{1}}}}
		if err := verify(fn); err == nil || !strings.Contains(err.Error(), "counts") {
			t.Fatalf("err = %v, want counts", err)
		}
	})
	// That paths reach a label at one stack depth is the compiler's
	// check, where it places the label or jumps back to it. No source
	// fails it (a for-in break pops its iterator first), so it is driven
	// here directly.
	t.Run("mismatched join", func(t *testing.T) {
		c := newCompiler(&Function{Name: "bad"}, true)
		var l label
		c.load(1, slotTrue)
		c.jump(1, opJumpF, &l)
		c.load(1, slotNull)
		if c.bind(&l); !errors.Is(c.err, errLabelDepth) {
			t.Fatalf("err = %v, want %v", c.err, errLabelDepth)
		}
	})
	t.Run("loop that grows the stack", func(t *testing.T) {
		c := newCompiler(&Function{Name: "bad"}, true)
		loop := &loopCtx{}
		c.loopStart(loop)
		c.load(1, slotNull)
		if c.loop(1, loop); !errors.Is(c.err, errLabelDepth) {
			t.Fatalf("err = %v, want %v", c.err, errLabelDepth)
		}
	})
}
