package vm

import (
	"fmt"

	"repro/internal/lang"
)

// Module is a compiled FaaSLang program: top-level code (function
// definitions plus module-level statements) and the functions it
// defines.
type Module struct {
	// TopLevel runs at module load; it stores each declared function
	// into the globals and executes module-level statements.
	TopLevel *Function
	// Functions lists the module's named functions in source order.
	Functions []*Function
}

// Ops returns the op count across the module, which the runtime uses
// to model module-load time and the module's memory.
func (m *Module) Ops() int {
	n := m.TopLevel.Ops()
	for _, f := range m.Functions {
		n += f.Ops()
	}
	return n
}

// Function is a compiled FaaSLang function: its register code, and the
// ops that code executes, which are what the cost model charges. An op
// is one step of the source's evaluation order (a load, an operator, a
// store, a jump); the register code executes several in one instruction
// or, for a load the next instruction reads in place, in none. A
// Function is immutable once compiled, so every VM revived from one
// snapshot runs it without locks.
//
// An activation's slots are its locals, then the function's constants,
// then null, true and false, then one slot per operand-stack position
// of the evaluation order; slots is what they start as.
type Function struct {
	Name        string
	Params      []string
	NumLocals   int
	Consts      []lang.Value
	Annotations []lang.Annotation

	ops    []opInfo // every op in source order, unreachable ones included
	slots  []Slot
	instrs []instr
	blocks []block
}

// Ops returns the function's op count, the basis of its virtual JIT
// compile time and machine-code size.
func (f *Function) Ops() int { return len(f.ops) }

// HasAnnotation reports whether the compiled function carries the named
// decorator (e.g. "jit").
func (f *Function) HasAnnotation(name string) bool {
	for _, a := range f.Annotations {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Closure is a callable FaaSLang function value. FaaSLang functions do
// not capture lexical environments (only globals and locals), so a
// closure is just its compiled function; the type exists so function
// values are distinct from raw *Function constants.
type Closure struct {
	Fn *Function
}

// FaaSLangType marks closures as function values for lang.TypeOf.
func (*Closure) FaaSLangType() lang.Type { return lang.TFunc }

// String implements fmt.Stringer for debugging output.
func (c *Closure) String() string { return fmt.Sprintf("<func %s>", c.Fn.Name) }

// Category classifies an op for the virtual cost model: arithmetic,
// container indexing, calls, and everything else have different
// interpreted-vs-JITted cost ratios (see internal/runtime).
type Category uint8

// Cost categories.
const (
	CatOther Category = iota
	CatArith
	CatIndex
	CatCall
	// NumCategories sizes the per-category arrays of the cost model
	// and of the VM's pending op counts.
	NumCategories = iota
)

// opInfo is one op of a function: its cost category and source line.
type opInfo struct {
	cat  Category
	line int32
}

// block is a basic block: the ops start to end-1 run in sequence,
// entered only at start. counts is how many of each cost category they
// are.
type block struct {
	start, end int32
	counts     [NumCategories]int32
}

// instr is one register instruction. a, b and c are slot indexes, except
// where the op list below says otherwise; pc is the op it executes (the
// first, where it stands for several), whose line an error reports.
type instr struct {
	op      rop
	sub     Op
	a, b, c int32
	pc      int32
}

type rop uint8

// Register ops. The ops from opJump on are the jumps: their target, a,
// is an index into Function.instrs, always a block's opBlock.
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
	numROps
)

// prefix is the code a block runs when only its first k ops fit under
// MaxSteps: its instructions up to the first that executes an op past
// them, followed by the step-limit failure. That is a prefix of what the
// whole block runs, so every effect before the limit is the same. Moves
// never cut it (they only copy slots), nor does an instruction that
// also stands for a cut STOREL, whose local dies with the activation.
// A comparison fused with the block's closing branch is cut to the
// comparison alone, which may still fail.
func (fn *Function) prefix(i int, k int32) []instr {
	lim := fn.blocks[fn.instrs[i].a].start + k
	var out []instr
	for _, in := range fn.instrs[i+1:] {
		if in.op == opBlock || in.op != opMove && in.pc >= lim {
			break
		}
		if in.op == opCmpBr && in.pc+1 >= lim {
			in.op, in.a = opBin, in.b
		}
		out = append(out, in)
	}
	return append(out, instr{op: opLimit})
}

// run executes fn in tier for an activation the caller has entered. args
// may be nil for a module top level. The activation's slots are its one
// allocation.
//
// A block is charged whole by its opBlock: one step-limit check, and
// its count vector added to the pending counts. Three rules keep this
// equal, at every point the clock can be read, to booking each op as it
// runs. Blocks end at every call, so a native, a compile or a deopt sees
// exactly the ops executed before it. An error uncharges the block's ops
// after the failing one. A block that would cross MaxSteps charges the k
// ops before the limit, runs just the code of those (prefix), and then
// fails at the limit.
func (v *VM) run(fn *Function, tier Tier, prof *Profile, args []lang.Value) (lang.Value, error) {
	s := make([]Slot, len(fn.slots))
	copy(s, fn.slots)
	for i, a := range args {
		s[i] = SlotOf(a)
	}
	pending := &v.pending[tier]
	code, blocks, end := fn.instrs, fn.blocks, int32(0) // end: the charged block's end op
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
				for _, o := range fn.ops[b.start : b.start+k] {
					pending[o.cat]++
				}
				code, ip, end = fn.prefix(ip-1, k), 0, b.start+k
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
				case OpAdd:
					s[in.a] = Int(i + j)
					continue
				case OpSub:
					s[in.a] = Int(i - j)
					continue
				case OpMul:
					s[in.a] = Int(i * j)
					continue
				case OpDiv, OpMod:
					if j != 0 && in.sub == OpDiv {
						s[in.a] = Int(i / j)
						continue
					} else if j != 0 {
						s[in.a] = Int(i % j)
						continue
					}
				case OpEq, OpNeq, OpLt, OpLte, OpGt, OpGte:
					s[in.a] = Bool(compareInts(in.sub, i, j))
					continue
				}
			}
			if s[in.a], err = BinaryOp(in.sub, *x, *y); err != nil {
				return v.fail(fn, pending, in.pc, end, err)
			}
		case opCmpBr:
			if x, y := &s[in.b], &s[in.c]; x.kind != lang.TInt || y.kind != lang.TInt {
				val, err := BinaryOp(in.sub, *x, *y)
				if err != nil {
					return v.fail(fn, pending, in.pc, end, err)
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
				return v.fail(fn, pending, in.pc, end, err)
			}
		case opSetIndex:
			if err := SetIndex(s[in.b], s[in.c], s[in.a]); err != nil {
				return v.fail(fn, pending, in.pc, end, err)
			}
		case opNeg:
			if s[in.a], err = Negate(s[in.b]); err != nil {
				return v.fail(fn, pending, in.pc, end, err)
			}
		case opNot:
			s[in.a] = Bool(!s[in.b].Truthy())
		case opLoadG:
			name := fn.Consts[in.c].(string)
			val, ok := v.Globals[name]
			if !ok {
				return v.fail(fn, pending, in.pc, end, fmt.Errorf("undefined variable %q", name))
			}
			s[in.a] = SlotOf(val)
		case opStoreG:
			v.Globals[fn.Consts[in.a].(string)] = s[in.b].Value()
		case opCall:
			val, err := v.CallValue(s[in.b].Value(), values(s[in.b+1:in.b+1+in.a]))
			if err != nil {
				return v.fail(fn, pending, in.pc, end, err)
			}
			s[in.b] = SlotOf(val)
		case opRet:
			return s[in.b].Value(), nil
		case opList:
			s[in.a] = Slot{kind: lang.TList, ref: &lang.List{Items: values(s[in.b : in.b+in.c])}}
		case opMap:
			m, err := MakeMap(values(s[in.b : in.b+2*in.c]))
			if err != nil {
				return v.fail(fn, pending, in.pc, end, err)
			}
			s[in.a] = Slot{kind: lang.TMap, ref: m}
		case opIter:
			if s[in.a], err = newIter(s[in.b]); err != nil {
				return v.fail(fn, pending, in.pc, end, err)
			}
		case opClosure:
			s[in.a] = SlotOf(&Closure{Fn: fn.Consts[in.c].(*Function)})
		case opLimit:
			v.steps++
			return nil, fmt.Errorf("%w (in %s)", ErrTooManySteps, fn.Name)
		case opJump:
			ip = int(in.a)
		case opLoop:
			// Only interpreted loops feed the tier-up profile.
			if tier == TierInterp {
				prof.LoopBackEdges++
				if v.JIT != nil {
					v.JIT.OnLoopBack(v, fn, prof)
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
func compareInts(op Op, i, j int64) bool {
	switch op {
	case OpEq:
		return i == j
	case OpNeq:
		return i != j
	case OpLt:
		return i < j
	case OpLte:
		return i <= j
	case OpGt:
		return i > j
	}
	return i >= j
}

// fail ends an activation with err, raised by the op at pc: the ops of
// the charged block after it, which never ran, are uncharged, and any
// error but a callee's is tagged with the op's line.
func (v *VM) fail(fn *Function, pending *[NumCategories]int, pc, end int32, err error) (lang.Value, error) {
	for _, o := range fn.ops[pc+1 : end] {
		v.steps--
		pending[o.cat]--
	}
	if o := fn.ops[pc]; o.cat != CatCall {
		err = fmt.Errorf("vm: line %d: %w", o.line, err)
	}
	return nil, err
}
