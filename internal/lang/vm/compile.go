package vm

import (
	"errors"
	"fmt"

	"repro/internal/lang"
)

// Compile lowers a parsed program to a Module.
func Compile(prog *lang.Program) (*Module, error) {
	c := newCompiler(&Function{Name: "__main__"}, false)
	mod := &Module{}
	for _, stmt := range prog.Stmts {
		if fd, ok := stmt.(*lang.FuncDecl); ok {
			mod.Functions = append(mod.Functions, c.funcDecl(fd))
		} else {
			c.stmt(stmt)
		}
	}
	if mod.TopLevel = c.finish(); c.err != nil {
		return nil, c.err
	}
	return mod, nil
}

// CompileSource parses and compiles FaaSLang source text.
func CompileSource(src string) (*Module, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(prog)
}

// compileFunction compiles one function; err is the first error in it.
func compileFunction(name string, params []string, body *lang.Block, anns []lang.Annotation) (fn *Function, err error) {
	c := newCompiler(&Function{Name: name, Params: params, Annotations: anns}, true)
	for _, p := range params {
		c.declareLocal(p)
	}
	c.stmt(body)
	return c.finish(), c.err
}

// compiler walks one function's AST in evaluation order, booking each
// op (see Function) into the op table and, when it is reachable, into
// the open basic block, and emitting the register code that executes
// it. The first error sticks in err; the output is then discarded.
//
// src holds, per live operand-stack position, the slot its value is in:
// a constant, local, null, true or false is only recorded there, and a
// position is settled into its own slot where a block ends or an
// instruction needs it there. An op that yields a value waits in pend
// for the next op, which may write it straight into a local (STOREL)
// or, for a comparison, branch on it (JMPF); otherwise it lands in its
// own slot.
type compiler struct {
	fn         *Function
	err        error
	scopes     []map[string]int
	nextLocal  int
	maxLocals  int
	loops      []*loopCtx
	inFunction bool

	live, leader bool // the next op is reachable; it starts a block
	blk          int  // the open block's opBlock instruction, -1 if none
	src          []int32
	pend         instr
	pending      bool
	maxDepth     int
}

// label is a forward jump target: the jumps to point at it once it is
// placed, and the stack depth they reach it at.
type label struct {
	jumps []int32
	depth int
}

type loopCtx struct {
	start, depth int   // the back-edge target instruction and its stack depth
	exit         label // the loop's exit and its breaks
	forIn        bool  // its iterator is on the stack
}

// errLabelDepth marks a label its paths would reach at two stack
// depths, where a position's slot would depend on the path taken.
var errLabelDepth = errors.New("paths reach a label at different stack depths")

func newCompiler(fn *Function, inFunction bool) *compiler {
	c := &compiler{fn: fn, inFunction: inFunction, live: true, leader: true, blk: -1}
	c.pushScope()
	return c
}

func (c *compiler) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// While a function compiles, a slot is a segment plus an offset: the
// constants and the tail (null, true, false, then the stack positions)
// move once the locals are counted. Only slot operands reach segConst;
// counts, constant indexes and jump targets stay far below it.
const (
	segConst  = 1 << 24
	segTail   = 2 << 24
	slotNull  = segTail
	slotTrue  = segTail + 1
	slotFalse = segTail + 2
)

// own is stack position p's own slot.
func own(p int) int32 { return segTail + 3 + int32(p) }

// finish ends the function with its implicit "return null" and lays
// out its slots.
func (c *compiler) finish() *Function {
	c.load(0, slotNull)
	c.ret(0)
	fn := c.fn
	fn.NumLocals = c.maxLocals
	consts, tail := int32(fn.NumLocals), int32(fn.NumLocals+len(fn.Consts))
	for i := range fn.instrs {
		in := &fn.instrs[i]
		for _, s := range []*int32{&in.a, &in.b, &in.c} {
			if *s >= segTail {
				*s += tail - segTail
			} else if *s >= segConst {
				*s += consts - segConst
			}
		}
	}
	fn.slots = make([]Slot, int(tail)+3+c.maxDepth)
	for i, k := range fn.Consts {
		fn.slots[int(consts)+i] = SlotOf(k)
	}
	fn.slots[tail+1], fn.slots[tail+2] = Bool(true), Bool(false)
	return fn
}

func (c *compiler) constant(v lang.Value) int32 {
	for i, existing := range c.fn.Consts {
		// Only deduplicate simple scalar constants; functions and
		// containers are identity-distinct.
		switch existing.(type) {
		case string, int64, float64, bool:
			if existing == v {
				return int32(i)
			}
		}
	}
	c.fn.Consts = append(c.fn.Consts, v)
	return int32(len(c.fn.Consts) - 1)
}

func (c *compiler) pushScope() { c.scopes = append(c.scopes, make(map[string]int)) }

func (c *compiler) popScope() {
	c.nextLocal -= len(c.scopes[len(c.scopes)-1])
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *compiler) declareLocal(name string) int32 {
	c.scopes[len(c.scopes)-1][name] = c.nextLocal
	c.nextLocal++
	c.maxLocals = max(c.maxLocals, c.nextLocal)
	return int32(c.nextLocal - 1)
}

// resolve returns the local slot for name, or -1 if it is a global.
func (c *compiler) resolve(name string) int32 {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if slot, ok := c.scopes[i][name]; ok {
			return int32(slot)
		}
	}
	return -1
}

// ---- The emitter ----

// book records the next op, of category cat at line, and returns its
// index, or -1 if it is unreachable: only a reachable op emits code,
// into the block it is counted in (which it starts, if it is a leader),
// after the value op waiting before it.
func (c *compiler) book(line int, cat Category) int32 {
	fn := c.fn
	if c.leader && c.live {
		c.blk = len(fn.instrs)
		fn.blocks = append(fn.blocks, block{start: int32(len(fn.ops))})
		c.add(instr{op: opBlock, a: int32(len(fn.blocks) - 1)})
	}
	c.leader = false
	fn.ops = append(fn.ops, opInfo{cat: cat, line: int32(line)})
	if !c.live {
		return -1
	}
	fn.blocks[len(fn.blocks)-1].counts[cat]++
	c.land()
	return int32(len(fn.ops) - 1)
}

// land emits the waiting value op into its own slot.
func (c *compiler) land() {
	if c.pending {
		c.pending = false
		c.pend.a = own(len(c.src))
		c.add(c.pend)
		c.push(c.pend.a)
	}
}

func (c *compiler) add(in instr) { c.fn.instrs = append(c.fn.instrs, in) }

func (c *compiler) push(s int32) {
	c.src = append(c.src, s)
	c.maxDepth = max(c.maxDepth, len(c.src))
}

// pop removes the top n positions and returns the first three of them.
func (c *compiler) pop(n int) (o [3]int32) {
	k := len(c.src) - n
	copy(o[:], c.src[k:])
	c.src = c.src[:k]
	return o
}

// settle moves every position that is not in its own slot there, or
// only those reading slot z when z >= 0 (before z is written). No
// position reads another's own slot unless that one is settled, so the
// order of the moves does not matter.
func (c *compiler) settle(z int32) {
	for p, x := range c.src {
		if o := own(p); x != o && (z < 0 || x == z) {
			c.add(instr{op: opMove, a: o, b: x})
			c.src[p] = o
		}
	}
}

// closeBlock ends the open block, if any, with every position settled;
// the next op is a leader, reachable if live.
func (c *compiler) closeBlock(live bool) {
	if c.blk >= 0 {
		c.land()
		c.settle(-1)
		b := &c.fn.blocks[len(c.fn.blocks)-1]
		b.end = int32(len(c.fn.ops))
		c.fn.instrs[c.blk].b = b.end - b.start
		c.blk = -1
	}
	c.leader, c.live = true, live
}

// join checks that a path reaches a label at the stack depth its other
// paths do.
func (c *compiler) join(depth int) {
	if len(c.src) != depth {
		c.fail(fmt.Errorf("vm: %s: %w (%d and %d)", c.fn.Name, errLabelDepth, depth, len(c.src)))
	}
}

// reach records the jump about to be added as one to l.
func (c *compiler) reach(l *label) {
	if len(l.jumps) > 0 {
		c.join(l.depth)
	}
	l.jumps, l.depth = append(l.jumps, int32(len(c.fn.instrs))), len(c.src)
}

// bind places l at the next op, a leader, and points its jumps at the
// block that starts there.
func (c *compiler) bind(l *label) {
	live := c.live
	c.closeBlock(live || len(l.jumps) > 0)
	switch {
	case len(l.jumps) == 0:
		return
	case live:
		c.join(l.depth)
	default: // reached by jumps alone, which leave every position settled
		c.src = c.src[:0]
		for p := range l.depth {
			c.src = append(c.src, own(p))
		}
	}
	for _, j := range l.jumps {
		c.fn.instrs[j].a = int32(len(c.fn.instrs))
	}
}

// load books CONST, LOADL, NULL, TRUE or FALSE, whose value is already
// in slot s; drop books POP and dup DUP.
func (c *compiler) load(line int, s int32) {
	if c.book(line, CatOther) >= 0 {
		c.push(s)
	}
}

func (c *compiler) drop(line int) {
	if c.book(line, CatOther) >= 0 {
		c.pop(1)
	}
}

func (c *compiler) dup(line int) {
	if c.book(line, CatOther) >= 0 {
		c.push(c.src[len(c.src)-1])
	}
}

// yield books an op that pops n operands and yields a value: in, whose
// b is the first operand and, for opBin and opIndex, c the second (the
// other ops' c is a constant or a count the caller sets).
func (c *compiler) yield(line int, cat Category, in instr, n int) {
	if in.pc = c.book(line, cat); in.pc < 0 {
		return
	}
	if in.op == opList || in.op == opMap {
		c.settle(-1) // the items contiguous in their own slots
	}
	o := c.pop(n)
	if in.b = o[0]; in.op == opBin || in.op == opIndex {
		in.c = o[1]
	}
	c.pend, c.pending = in, true
	c.maxDepth = max(c.maxDepth, len(c.src)+1)
}

// storeLocal books STOREL l, which a value op just before writes itself.
func (c *compiler) storeLocal(line int, l int32) {
	fused := c.pending
	c.pending = false
	pc := c.book(line, CatOther)
	if pc < 0 {
		return
	} else if fused {
		c.pend.a = l
		c.settle(l)
		c.add(c.pend)
	} else if x := c.pop(1)[0]; x != l {
		c.settle(l)
		c.add(instr{op: opMove, a: l, b: x, pc: pc})
	}
}

func (c *compiler) storeGlobal(line int, name string) {
	k := c.constant(name)
	if pc := c.book(line, CatOther); pc >= 0 {
		c.add(instr{op: opStoreG, a: k, b: c.pop(1)[0], pc: pc})
	}
}

// setIndex books SETIDX: container[key] = value.
func (c *compiler) setIndex(line int) {
	if pc := c.book(line, CatIndex); pc >= 0 {
		o := c.pop(3)
		c.add(instr{op: opSetIndex, a: o[2], b: o[0], c: o[1], pc: pc})
	}
}

// call books CALL with n arguments; ret books RET.
func (c *compiler) call(line, n int) {
	if pc := c.book(line, CatCall); pc >= 0 {
		c.settle(-1) // the callee and its arguments contiguous in their own slots
		o := c.pop(n + 1)
		c.add(instr{op: opCall, a: int32(n), b: o[0], pc: pc})
		c.push(o[0])
		c.closeBlock(true)
	}
}

func (c *compiler) ret(line int) {
	if pc := c.book(line, CatOther); pc >= 0 {
		c.add(instr{op: opRet, b: c.pop(1)[0], pc: pc})
		c.closeBlock(false)
	}
}

// jump books JMP, JMPF or JMPT (op) to l. A JMPF right after a
// comparison branches on the comparison itself.
func (c *compiler) jump(line int, op rop, l *label) {
	fused := op == opJumpF && c.pending && c.pend.op == opBin && c.pend.sub >= OpEq
	c.pending = c.pending && !fused
	in := instr{op: op, pc: c.book(line, CatOther)}
	if in.pc < 0 {
		return
	} else if fused {
		in = c.pend
		in.op = opCmpBr
	} else if op != opJump {
		in.b = c.pop(1)[0]
	}
	c.settle(-1)
	c.reach(l)
	c.add(in)
	c.closeBlock(op != opJump)
}

// loopStart places loop's back-edge target at the next op, a leader;
// loop books LOOP, the back-edge.
func (c *compiler) loopStart(loop *loopCtx) {
	c.closeBlock(c.live)
	loop.start, loop.depth = len(c.fn.instrs), len(c.src)
}

func (c *compiler) loop(line int, loop *loopCtx) {
	if pc := c.book(line, CatOther); pc >= 0 {
		c.settle(-1)
		c.join(loop.depth)
		c.add(instr{op: opLoop, a: int32(loop.start), pc: pc})
		c.closeBlock(false)
	}
}

// next books NEXT: the iterator on top yields its next item above it,
// or is popped with a jump to exit.
func (c *compiler) next(line int, exit *label) {
	if pc := c.book(line, CatOther); pc >= 0 {
		c.settle(-1)
		it := c.pop(1)[0]
		c.reach(exit)
		c.add(instr{op: opNext, b: it, pc: pc})
		c.push(it)
		c.push(it + 1)
		c.closeBlock(true)
	}
}

// ---- Statements ----

func (c *compiler) stmt(s lang.Stmt) {
	line := s.Line()
	switch s := s.(type) {
	case *lang.Block:
		c.pushScope()
		for _, inner := range s.Stmts {
			c.stmt(inner)
		}
		c.popScope()
	case *lang.LetStmt:
		c.expr(s.Value)
		c.store(line, s.Name)
	case *lang.AssignStmt:
		switch target := s.Target.(type) {
		case *lang.Ident:
			c.expr(s.Value)
			if slot := c.resolve(target.Name); slot >= 0 {
				c.storeLocal(line, slot)
			} else {
				c.storeGlobal(line, target.Name)
			}
		case *lang.IndexExpr:
			c.exprs(target.X, target.Index, s.Value)
			c.setIndex(line)
		default:
			c.fail(fmt.Errorf("vm: %s: invalid assignment target", s.Pos()))
		}
	case *lang.IfStmt:
		var elseL, end label
		c.expr(s.Cond)
		c.jump(line, opJumpF, &elseL)
		c.stmt(s.Then)
		if s.Else == nil {
			c.bind(&elseL)
			return
		}
		c.jump(line, opJump, &end)
		c.bind(&elseL)
		c.stmt(s.Else)
		c.bind(&end)
	case *lang.WhileStmt:
		loop := c.beginLoop(false)
		c.expr(s.Cond)
		c.jump(line, opJumpF, &loop.exit)
		c.stmt(s.Body)
		c.endLoop(line, loop)
	case *lang.ForInStmt:
		c.expr(s.Iterable)
		c.yield(line, CatOther, instr{op: opIter}, 1)
		loop := c.beginLoop(true)
		c.next(line, &loop.exit)
		c.pushScope()
		c.store(line, s.Var)
		c.stmt(s.Body)
		c.popScope()
		c.endLoop(line, loop)
	case *lang.ReturnStmt:
		if !c.inFunction {
			c.fail(fmt.Errorf("vm: %s: return outside function", s.Pos()))
		} else if s.Value != nil {
			c.expr(s.Value)
			c.ret(line)
		} else {
			c.load(line, slotNull)
			c.ret(line)
		}
	case *lang.BreakStmt:
		if loop := c.innermost(s, "break"); loop != nil {
			if loop.forIn {
				c.drop(line) // the iterator, as NEXT pops it at the end
			}
			c.jump(line, opJump, &loop.exit)
		}
	case *lang.ContinueStmt:
		if loop := c.innermost(s, "continue"); loop != nil {
			c.loop(line, loop)
		}
	case *lang.ExprStmt:
		c.expr(s.X)
		c.drop(line)
	case *lang.FuncDecl:
		c.funcDecl(s)
	default:
		c.fail(fmt.Errorf("vm: %s: unsupported statement %T", s.Pos(), s))
	}
}

// innermost returns the loop a break or continue (s, named what) leaves.
func (c *compiler) innermost(s lang.Stmt, what string) *loopCtx {
	if len(c.loops) == 0 {
		c.fail(fmt.Errorf("vm: %s: %s outside loop", s.Pos(), what))
		return nil
	}
	return c.loops[len(c.loops)-1]
}

// funcDecl compiles a function declaration and binds it to its name.
func (c *compiler) funcDecl(s *lang.FuncDecl) *Function {
	fn, err := compileFunction(s.Name, s.Params, s.Body, s.Annotations)
	c.fail(err)
	c.yield(s.Line(), CatOther, instr{op: opClosure, c: c.constant(fn)}, 0)
	c.store(s.Line(), s.Name)
	return fn
}

// store binds a new name to the value on top: a local in a function, a
// global at module level.
func (c *compiler) store(line int, name string) {
	if c.inFunction {
		c.storeLocal(line, c.declareLocal(name))
	} else {
		c.storeGlobal(line, name)
	}
}

// beginLoop places a loop's start; endLoop books its back-edge and
// places its exit after it.
func (c *compiler) beginLoop(forIn bool) *loopCtx {
	loop := &loopCtx{forIn: forIn}
	c.loopStart(loop)
	c.loops = append(c.loops, loop)
	return loop
}

func (c *compiler) endLoop(line int, loop *loopCtx) {
	c.loop(line, loop)
	c.loops = c.loops[:len(c.loops)-1]
	c.bind(&loop.exit)
}

// ---- Expressions ----

// binaryOps maps a binary operator token to its Op.
var binaryOps = map[lang.TokenType]Op{
	lang.TokenPlus: OpAdd, lang.TokenMinus: OpSub,
	lang.TokenStar: OpMul, lang.TokenSlash: OpDiv, lang.TokenPercent: OpMod,
	lang.TokenEq: OpEq, lang.TokenNotEq: OpNeq,
	lang.TokenLt: OpLt, lang.TokenLtEq: OpLte,
	lang.TokenGt: OpGt, lang.TokenGtEq: OpGte,
}

func (c *compiler) exprs(es ...lang.Expr) {
	for _, e := range es {
		c.expr(e)
	}
}

func (c *compiler) expr(e lang.Expr) {
	line := e.Line()
	switch e := e.(type) {
	case *lang.IntLit:
		c.load(line, segConst+c.constant(e.Value))
	case *lang.FloatLit:
		c.load(line, segConst+c.constant(e.Value))
	case *lang.StringLit:
		c.load(line, segConst+c.constant(e.Value))
	case *lang.BoolLit:
		if e.Value {
			c.load(line, slotTrue)
		} else {
			c.load(line, slotFalse)
		}
	case *lang.NullLit:
		c.load(line, slotNull)
	case *lang.Ident:
		if slot := c.resolve(e.Name); slot >= 0 {
			c.load(line, slot)
		} else {
			c.yield(line, CatOther, instr{op: opLoadG, c: c.constant(e.Name)}, 0)
		}
	case *lang.ListLit:
		c.exprs(e.Items...)
		c.yield(line, CatIndex, instr{op: opList, c: int32(len(e.Items))}, len(e.Items))
	case *lang.MapLit:
		for i := range e.Keys {
			c.exprs(e.Keys[i], e.Values[i])
		}
		c.yield(line, CatIndex, instr{op: opMap, c: int32(len(e.Keys))}, 2*len(e.Keys))
	case *lang.UnaryExpr:
		c.expr(e.X)
		switch e.Op {
		case lang.TokenMinus:
			c.yield(line, CatArith, instr{op: opNeg}, 1)
		case lang.TokenBang:
			c.yield(line, CatOther, instr{op: opNot}, 1)
		default:
			c.fail(fmt.Errorf("vm: %s: bad unary op %s", e.Pos(), e.Op))
		}
	case *lang.BinaryExpr:
		if op, ok := binaryOps[e.Op]; ok {
			c.exprs(e.Left, e.Right)
			c.yield(line, CatArith, instr{op: opBin, sub: op}, 2)
		} else if e.Op == lang.TokenAnd || e.Op == lang.TokenOr {
			// a && b is a if a is falsy, else b; a || b the other way.
			var end label
			branch := opJumpF
			if e.Op == lang.TokenOr {
				branch = opJumpT
			}
			c.expr(e.Left)
			c.dup(line)
			c.jump(line, branch, &end)
			c.drop(line)
			c.expr(e.Right)
			c.bind(&end)
		} else {
			c.fail(fmt.Errorf("vm: %s: bad binary op %s", e.Pos(), e.Op))
		}
	case *lang.IndexExpr:
		c.exprs(e.X, e.Index)
		c.yield(line, CatIndex, instr{op: opIndex}, 2)
	case *lang.CallExpr:
		c.expr(e.Fn)
		c.exprs(e.Args...)
		c.call(line, len(e.Args))
	case *lang.FuncLit:
		fn, err := compileFunction("<anon>", e.Params, e.Body, nil)
		c.fail(err)
		c.yield(line, CatOther, instr{op: opClosure, c: c.constant(fn)}, 0)
	default:
		c.fail(fmt.Errorf("vm: %s: unsupported expression %T", e.Pos(), e))
	}
}
