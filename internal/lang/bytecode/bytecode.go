// Package bytecode compiles FaaSLang ASTs to a compact stack-machine
// bytecode. The same bytecode is executed by the profiling interpreter
// (lang/vm) and is the input to the optimizing tier (lang/jit); keeping
// one compiled form with two execution tiers mirrors how V8 runs
// Ignition bytecode until TurboFan produces optimized code.
package bytecode

import (
	"fmt"
	"strings"

	"repro/internal/lang"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Instructions carry one integer operand A whose meaning
// depends on the opcode (constant index, local slot, jump target, or
// argument count).
const (
	OpConst       Op = iota // push Consts[A]
	OpNull                  // push null
	OpTrue                  // push true
	OpFalse                 // push false
	OpPop                   // discard top of stack
	OpLoadLocal             // push locals[A]
	OpStoreLocal            // locals[A] = pop
	OpLoadGlobal            // push globals[Consts[A].(string)]
	OpStoreGlobal           // globals[Consts[A].(string)] = pop
	OpAdd                   // binary +
	OpSub                   // binary -
	OpMul                   // binary *
	OpDiv                   // binary /
	OpMod                   // binary %
	OpEq                    // ==
	OpNeq                   // !=
	OpLt                    // <
	OpLte                   // <=
	OpGt                    // >
	OpGte                   // >=
	OpNeg                   // unary -
	OpNot                   // unary !
	OpJump                  // pc = A
	OpJumpIfFalse           // if !truthy(pop) pc = A
	OpJumpIfTrue            // if truthy(pop) pc = A
	OpDup                   // duplicate top of stack
	OpLoop                  // pc = A (back edge; counted by the profiler)
	OpCall                  // call with A args; callee below args
	OpReturn                // return pop (or null if stack empty at base)
	OpMakeList              // pop A items, push list
	OpMakeMap               // pop A (key,value) pairs, push map
	OpIndex                 // pop key, container; push container[key]
	OpSetIndex              // pop value, key, container; container[key] = value
	OpIterNew               // pop iterable, push iterator
	OpIterNext              // if iterator (at top) has next: push item; else pop iterator and pc = A
	OpClosure               // push closure over Consts[A].(*Function)
)

var opNames = map[Op]string{
	OpConst: "CONST", OpNull: "NULL", OpTrue: "TRUE", OpFalse: "FALSE",
	OpPop: "POP", OpLoadLocal: "LOADL", OpStoreLocal: "STOREL",
	OpLoadGlobal: "LOADG", OpStoreGlobal: "STOREG",
	OpAdd: "ADD", OpSub: "SUB", OpMul: "MUL", OpDiv: "DIV", OpMod: "MOD",
	OpEq: "EQ", OpNeq: "NEQ", OpLt: "LT", OpLte: "LTE", OpGt: "GT", OpGte: "GTE",
	OpNeg: "NEG", OpNot: "NOT",
	OpJump: "JMP", OpJumpIfFalse: "JMPF", OpJumpIfTrue: "JMPT", OpDup: "DUP",
	OpLoop: "LOOP", OpCall: "CALL", OpReturn: "RET",
	OpMakeList: "MKLIST", OpMakeMap: "MKMAP",
	OpIndex: "INDEX", OpSetIndex: "SETIDX",
	OpIterNew: "ITER", OpIterNext: "NEXT", OpClosure: "CLOSURE",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Category classifies an opcode for the virtual cost model: arithmetic,
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

// CategoryOf returns the cost category of an opcode.
func CategoryOf(o Op) Category {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpNeg,
		OpEq, OpNeq, OpLt, OpLte, OpGt, OpGte:
		return CatArith
	case OpIndex, OpSetIndex, OpMakeList, OpMakeMap:
		return CatIndex
	case OpCall:
		return CatCall
	default:
		return CatOther
	}
}

// Instr is one bytecode instruction.
type Instr struct {
	Op   Op
	A    int
	Line int
}

// Function is a compiled FaaSLang function.
type Function struct {
	Name        string
	Params      []string
	NumLocals   int
	Code        []Instr
	Consts      []lang.Value
	Annotations []lang.Annotation
}

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

// Function returns the named function, or nil.
func (m *Module) Function(name string) *Function {
	for _, f := range m.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// TotalInstructions returns the instruction count across the module,
// which the runtime uses to model JIT compilation time and machine-code
// size.
func (m *Module) TotalInstructions() int {
	n := len(m.TopLevel.Code)
	for _, f := range m.Functions {
		n += len(f.Code)
	}
	return n
}

// Disassemble renders a function's bytecode for debugging and tests.
func Disassemble(f *Function) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%s) locals=%d\n", f.Name, strings.Join(f.Params, ", "), f.NumLocals)
	for i, ins := range f.Code {
		fmt.Fprintf(&sb, "  %4d  %-8s", i, ins.Op)
		switch ins.Op {
		case OpConst, OpLoadGlobal, OpStoreGlobal, OpClosure:
			fmt.Fprintf(&sb, " %d (%s)", ins.A, lang.Format(f.Consts[ins.A]))
		case OpLoadLocal, OpStoreLocal, OpJump, OpJumpIfFalse, OpJumpIfTrue,
			OpLoop, OpCall, OpMakeList, OpMakeMap, OpIterNext:
			fmt.Fprintf(&sb, " %d", ins.A)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
