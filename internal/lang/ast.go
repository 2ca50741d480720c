package lang

// Node is the interface implemented by every AST node.
type Node interface {
	node()
	// Pos returns the "line:col" position of the node's first token,
	// and Line its line.
	Pos() string
	Line() int
}

// Stmt is a statement node; Expr an expression node.
type Stmt interface {
	Node
	stmt()
}

type Expr interface {
	Node
	expr()
}

type base struct{ Tok Token }

func (b base) node()       {}
func (b base) Pos() string { return b.Tok.Pos() }
func (b base) Line() int   { return b.Tok.Line }

// Program is a parsed FaaSLang module: an ordered list of top-level
// statements. Function declarations define globals; other statements run
// at module load time.
type Program struct {
	Stmts []Stmt
}

// Annotation is a decorator attached to a function declaration, e.g.
// @jit(cache=true). Args maps argument names to their literal text.
type Annotation struct {
	Name string
	Args map[string]string
}

// ---- Statements ----

// FuncDecl declares a named function, optionally decorated.
type FuncDecl struct {
	base
	Name        string
	Params      []string
	Body        *Block
	Annotations []Annotation
}

// LetStmt declares and initializes a new variable.
type LetStmt struct {
	base
	Name  string
	Value Expr
}

// AssignStmt assigns to a variable or an index target.
type AssignStmt struct {
	base
	Target Expr // *Ident or *IndexExpr
	Value  Expr
}

// IfStmt is if/else; Else may be nil or contain another IfStmt ("else if").
type IfStmt struct {
	base
	Cond Expr
	Then *Block
	Else *Block
}

// WhileStmt loops while Cond is truthy.
type WhileStmt struct {
	base
	Cond Expr
	Body *Block
}

// ForInStmt iterates a list's items or a map's keys.
type ForInStmt struct {
	base
	Var      string
	Iterable Expr
	Body     *Block
}

// ReturnStmt returns from the enclosing function; Value may be nil.
type ReturnStmt struct {
	base
	Value Expr
}

// BreakStmt and ContinueStmt control the innermost loop.
type BreakStmt struct{ base }
type ContinueStmt struct{ base }

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	base
	X Expr
}

// Block is a braced list of statements.
type Block struct {
	base
	Stmts []Stmt
}

func (*FuncDecl) stmt()     {}
func (*LetStmt) stmt()      {}
func (*AssignStmt) stmt()   {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*ForInStmt) stmt()    {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*ExprStmt) stmt()     {}
func (*Block) stmt()        {}

// ---- Expressions ----

// Ident references a variable or global by name.
type Ident struct {
	base
	Name string
}

// IntLit, FloatLit, StringLit, BoolLit, NullLit are literals.
type IntLit struct {
	base
	Value int64
}

type FloatLit struct {
	base
	Value float64
}

type StringLit struct {
	base
	Value string
}

type BoolLit struct {
	base
	Value bool
}

type NullLit struct{ base }

// ListLit is [a, b, c]; MapLit is {"k": v, ...}.
type ListLit struct {
	base
	Items []Expr
}

type MapLit struct {
	base
	Keys   []Expr
	Values []Expr
}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	base
	Op    TokenType
	Left  Expr
	Right Expr
}

// UnaryExpr applies a prefix operator (- or !).
type UnaryExpr struct {
	base
	Op TokenType
	X  Expr
}

// CallExpr calls a function value with arguments.
type CallExpr struct {
	base
	Fn   Expr
	Args []Expr
}

// IndexExpr is container[key]; also produced by the m.field sugar
// (rewritten to m["field"] by the parser).
type IndexExpr struct {
	base
	X     Expr
	Index Expr
}

// FuncLit is an anonymous function expression.
type FuncLit struct {
	base
	Params []string
	Body   *Block
}

func (*Ident) expr()      {}
func (*IntLit) expr()     {}
func (*FloatLit) expr()   {}
func (*StringLit) expr()  {}
func (*BoolLit) expr()    {}
func (*NullLit) expr()    {}
func (*ListLit) expr()    {}
func (*MapLit) expr()     {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*CallExpr) expr()   {}
func (*IndexExpr) expr()  {}
func (*FuncLit) expr()    {}

// Functions returns the top-level function declarations of a program in
// source order, which the Fireworks annotator uses to decide what to
// decorate with @jit.
func (p *Program) Functions() []*FuncDecl {
	var fns []*FuncDecl
	for _, s := range p.Stmts {
		if fd, ok := s.(*FuncDecl); ok {
			fns = append(fns, fd)
		}
	}
	return fns
}

// Function returns the top-level function with the given name, or nil.
func (p *Program) Function(name string) *FuncDecl {
	for _, fd := range p.Functions() {
		if fd.Name == name {
			return fd
		}
	}
	return nil
}

// HasAnnotation reports whether the declaration carries the named
// decorator.
func (f *FuncDecl) HasAnnotation(name string) bool {
	for _, a := range f.Annotations {
		if a.Name == name {
			return true
		}
	}
	return false
}
