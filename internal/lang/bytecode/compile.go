package bytecode

import (
	"fmt"

	"repro/internal/lang"
)

// Compile lowers a parsed program to a Module.
func Compile(prog *lang.Program) (*Module, error) {
	c := &compiler{fn: &Function{Name: "__main__"}}
	c.pushScope()
	mod := &Module{}
	for _, stmt := range prog.Stmts {
		if fd, ok := stmt.(*lang.FuncDecl); ok {
			fn, err := compileFunction(fd.Name, fd.Params, fd.Body, fd.Annotations)
			if err != nil {
				return nil, err
			}
			mod.Functions = append(mod.Functions, fn)
			// Top-level code binds the function into the globals.
			idx := c.constant(fn)
			c.emit(fd.Line(), OpClosure, idx)
			c.emit(fd.Line(), OpStoreGlobal, c.constant(fd.Name))
			continue
		}
		if err := c.stmt(stmt); err != nil {
			return nil, err
		}
	}
	c.emit(0, OpNull, 0)
	c.emit(0, OpReturn, 0)
	c.fn.NumLocals = c.maxLocals
	mod.TopLevel = c.fn
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

func compileFunction(name string, params []string, body *lang.Block, anns []lang.Annotation) (*Function, error) {
	c := &compiler{fn: &Function{Name: name, Params: params, Annotations: anns}, inFunction: true}
	c.pushScope()
	for _, p := range params {
		c.declareLocal(p)
	}
	if err := c.stmt(body); err != nil {
		return nil, err
	}
	// Implicit "return null" at the end of every function.
	c.emit(0, OpNull, 0)
	c.emit(0, OpReturn, 0)
	c.fn.NumLocals = c.maxLocals
	return c.fn, nil
}

type scope struct {
	names map[string]int
}

type loopCtx struct {
	start        int
	breakPatches []int
	forIn        bool // its iterator is on the stack
}

type compiler struct {
	fn         *Function
	scopes     []*scope
	nextLocal  int
	maxLocals  int
	loops      []*loopCtx
	inFunction bool
}

func (c *compiler) emit(line int, op Op, a int) int {
	c.fn.Code = append(c.fn.Code, Instr{Op: op, A: a, Line: line})
	return len(c.fn.Code) - 1
}

func (c *compiler) patch(at, target int) { c.fn.Code[at].A = target }

func (c *compiler) here() int { return len(c.fn.Code) }

func (c *compiler) constant(v lang.Value) int {
	for i, existing := range c.fn.Consts {
		// Only deduplicate simple scalar constants; functions and
		// containers are identity-distinct.
		switch existing.(type) {
		case string, int64, float64, bool:
			if existing == v {
				return i
			}
		}
	}
	c.fn.Consts = append(c.fn.Consts, v)
	return len(c.fn.Consts) - 1
}

func (c *compiler) pushScope() {
	c.scopes = append(c.scopes, &scope{names: make(map[string]int)})
}

func (c *compiler) popScope() {
	top := c.scopes[len(c.scopes)-1]
	c.nextLocal -= len(top.names)
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *compiler) declareLocal(name string) int {
	top := c.scopes[len(c.scopes)-1]
	slot := c.nextLocal
	top.names[name] = slot
	c.nextLocal++
	if c.nextLocal > c.maxLocals {
		c.maxLocals = c.nextLocal
	}
	return slot
}

// resolve returns the local slot for name, or -1 if it is a global.
func (c *compiler) resolve(name string) int {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if slot, ok := c.scopes[i].names[name]; ok {
			return slot
		}
	}
	return -1
}

// ---- Statements ----

func (c *compiler) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Block:
		c.pushScope()
		for _, inner := range s.Stmts {
			if err := c.stmt(inner); err != nil {
				return err
			}
		}
		c.popScope()
		return nil

	case *lang.LetStmt:
		if err := c.expr(s.Value); err != nil {
			return err
		}
		if c.inFunction {
			slot := c.declareLocal(s.Name)
			c.emit(s.Line(), OpStoreLocal, slot)
		} else {
			c.emit(s.Line(), OpStoreGlobal, c.constant(s.Name))
		}
		return nil

	case *lang.AssignStmt:
		switch target := s.Target.(type) {
		case *lang.Ident:
			if err := c.expr(s.Value); err != nil {
				return err
			}
			if slot := c.resolve(target.Name); slot >= 0 {
				c.emit(s.Line(), OpStoreLocal, slot)
			} else {
				c.emit(s.Line(), OpStoreGlobal, c.constant(target.Name))
			}
			return nil
		case *lang.IndexExpr:
			if err := c.expr(target.X); err != nil {
				return err
			}
			if err := c.expr(target.Index); err != nil {
				return err
			}
			if err := c.expr(s.Value); err != nil {
				return err
			}
			c.emit(s.Line(), OpSetIndex, 0)
			return nil
		default:
			return fmt.Errorf("bytecode: %s: invalid assignment target", s.Pos())
		}

	case *lang.IfStmt:
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		jumpElse := c.emit(s.Line(), OpJumpIfFalse, -1)
		if err := c.stmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			jumpEnd := c.emit(s.Line(), OpJump, -1)
			c.patch(jumpElse, c.here())
			if err := c.stmt(s.Else); err != nil {
				return err
			}
			c.patch(jumpEnd, c.here())
		} else {
			c.patch(jumpElse, c.here())
		}
		return nil

	case *lang.WhileStmt:
		start := c.here()
		loop := &loopCtx{start: start}
		c.loops = append(c.loops, loop)
		if err := c.expr(s.Cond); err != nil {
			return err
		}
		exit := c.emit(s.Line(), OpJumpIfFalse, -1)
		if err := c.stmt(s.Body); err != nil {
			return err
		}
		c.emit(s.Line(), OpLoop, start)
		c.patch(exit, c.here())
		for _, at := range loop.breakPatches {
			c.patch(at, c.here())
		}
		c.loops = c.loops[:len(c.loops)-1]
		return nil

	case *lang.ForInStmt:
		if err := c.expr(s.Iterable); err != nil {
			return err
		}
		c.emit(s.Line(), OpIterNew, 0)
		start := c.here()
		loop := &loopCtx{start: start, forIn: true}
		c.loops = append(c.loops, loop)
		next := c.emit(s.Line(), OpIterNext, -1)
		c.pushScope()
		var slot int
		if c.inFunction {
			slot = c.declareLocal(s.Var)
			c.emit(s.Line(), OpStoreLocal, slot)
		} else {
			c.emit(s.Line(), OpStoreGlobal, c.constant(s.Var))
		}
		if err := c.stmt(s.Body); err != nil {
			return err
		}
		c.popScope()
		c.emit(s.Line(), OpLoop, start)
		c.patch(next, c.here())
		for _, at := range loop.breakPatches {
			c.patch(at, c.here())
		}
		c.loops = c.loops[:len(c.loops)-1]
		return nil

	case *lang.ReturnStmt:
		if !c.inFunction {
			return fmt.Errorf("bytecode: %s: return outside function", s.Pos())
		}
		if s.Value != nil {
			if err := c.expr(s.Value); err != nil {
				return err
			}
		} else {
			c.emit(s.Line(), OpNull, 0)
		}
		c.emit(s.Line(), OpReturn, 0)
		return nil

	case *lang.BreakStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("bytecode: %s: break outside loop", s.Pos())
		}
		loop := c.loops[len(c.loops)-1]
		if loop.forIn {
			c.emit(s.Line(), OpPop, 0) // the iterator, as NEXT pops it at the end
		}
		loop.breakPatches = append(loop.breakPatches, c.emit(s.Line(), OpJump, -1))
		return nil

	case *lang.ContinueStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("bytecode: %s: continue outside loop", s.Pos())
		}
		loop := c.loops[len(c.loops)-1]
		c.emit(s.Line(), OpLoop, loop.start)
		return nil

	case *lang.ExprStmt:
		if err := c.expr(s.X); err != nil {
			return err
		}
		c.emit(s.Line(), OpPop, 0)
		return nil

	case *lang.FuncDecl:
		// Nested function declarations become local/global bindings.
		fn, err := compileFunction(s.Name, s.Params, s.Body, s.Annotations)
		if err != nil {
			return err
		}
		c.emit(s.Line(), OpClosure, c.constant(fn))
		if c.inFunction {
			slot := c.declareLocal(s.Name)
			c.emit(s.Line(), OpStoreLocal, slot)
		} else {
			c.emit(s.Line(), OpStoreGlobal, c.constant(s.Name))
		}
		return nil

	default:
		return fmt.Errorf("bytecode: %s: unsupported statement %T", s.Pos(), s)
	}
}

// ---- Expressions ----

func (c *compiler) expr(e lang.Expr) error {
	switch e := e.(type) {
	case *lang.IntLit:
		c.emit(e.Line(), OpConst, c.constant(e.Value))
	case *lang.FloatLit:
		c.emit(e.Line(), OpConst, c.constant(e.Value))
	case *lang.StringLit:
		c.emit(e.Line(), OpConst, c.constant(e.Value))
	case *lang.BoolLit:
		if e.Value {
			c.emit(e.Line(), OpTrue, 0)
		} else {
			c.emit(e.Line(), OpFalse, 0)
		}
	case *lang.NullLit:
		c.emit(e.Line(), OpNull, 0)
	case *lang.Ident:
		if slot := c.resolve(e.Name); slot >= 0 {
			c.emit(e.Line(), OpLoadLocal, slot)
		} else {
			c.emit(e.Line(), OpLoadGlobal, c.constant(e.Name))
		}
	case *lang.ListLit:
		for _, item := range e.Items {
			if err := c.expr(item); err != nil {
				return err
			}
		}
		c.emit(e.Line(), OpMakeList, len(e.Items))
	case *lang.MapLit:
		for i := range e.Keys {
			if err := c.expr(e.Keys[i]); err != nil {
				return err
			}
			if err := c.expr(e.Values[i]); err != nil {
				return err
			}
		}
		c.emit(e.Line(), OpMakeMap, len(e.Keys))
	case *lang.UnaryExpr:
		if err := c.expr(e.X); err != nil {
			return err
		}
		switch e.Op {
		case lang.TokenMinus:
			c.emit(e.Line(), OpNeg, 0)
		case lang.TokenBang:
			c.emit(e.Line(), OpNot, 0)
		default:
			return fmt.Errorf("bytecode: %s: bad unary op %s", e.Pos(), e.Op)
		}
	case *lang.BinaryExpr:
		switch e.Op {
		case lang.TokenAnd:
			// a && b: if !a, result is a; else result is b.
			if err := c.expr(e.Left); err != nil {
				return err
			}
			c.emit(e.Line(), OpDup, 0)
			end := c.emit(e.Line(), OpJumpIfFalse, -1)
			c.emit(e.Line(), OpPop, 0)
			if err := c.expr(e.Right); err != nil {
				return err
			}
			c.patch(end, c.here())
			return nil
		case lang.TokenOr:
			if err := c.expr(e.Left); err != nil {
				return err
			}
			c.emit(e.Line(), OpDup, 0)
			end := c.emit(e.Line(), OpJumpIfTrue, -1)
			c.emit(e.Line(), OpPop, 0)
			if err := c.expr(e.Right); err != nil {
				return err
			}
			c.patch(end, c.here())
			return nil
		}
		if err := c.expr(e.Left); err != nil {
			return err
		}
		if err := c.expr(e.Right); err != nil {
			return err
		}
		ops := map[lang.TokenType]Op{
			lang.TokenPlus: OpAdd, lang.TokenMinus: OpSub,
			lang.TokenStar: OpMul, lang.TokenSlash: OpDiv, lang.TokenPercent: OpMod,
			lang.TokenEq: OpEq, lang.TokenNotEq: OpNeq,
			lang.TokenLt: OpLt, lang.TokenLtEq: OpLte,
			lang.TokenGt: OpGt, lang.TokenGtEq: OpGte,
		}
		op, ok := ops[e.Op]
		if !ok {
			return fmt.Errorf("bytecode: %s: bad binary op %s", e.Pos(), e.Op)
		}
		c.emit(e.Line(), op, 0)
	case *lang.IndexExpr:
		if err := c.expr(e.X); err != nil {
			return err
		}
		if err := c.expr(e.Index); err != nil {
			return err
		}
		c.emit(e.Line(), OpIndex, 0)
	case *lang.CallExpr:
		if err := c.expr(e.Fn); err != nil {
			return err
		}
		for _, arg := range e.Args {
			if err := c.expr(arg); err != nil {
				return err
			}
		}
		c.emit(e.Line(), OpCall, len(e.Args))
	case *lang.FuncLit:
		fn, err := compileFunction("<anon>", e.Params, e.Body, nil)
		if err != nil {
			return err
		}
		c.emit(e.Line(), OpClosure, c.constant(fn))
	default:
		return fmt.Errorf("bytecode: %s: unsupported expression %T", e.Pos(), e)
	}
	return nil
}
