package vm

import (
	"fmt"
	"strings"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
)

// BinaryOp implements FaaSLang binary operator semantics on slots. It
// is shared verbatim by the interpreter and the JIT tier's generic slow
// path, so the two tiers cannot diverge semantically. Numeric operands
// never leave their slots, so int and float arithmetic allocates nothing.
func BinaryOp(op bytecode.Op, left, right Slot) (Slot, error) {
	if left.kind == lang.TInt && right.kind == lang.TInt {
		return intOp(op, int64(left.word), int64(right.word))
	}
	if l, ok := left.number(); ok {
		if r, ok := right.number(); ok {
			return floatOp(op, l, r)
		}
	}
	switch op {
	case bytecode.OpEq:
		return Bool(equal(left, right)), nil
	case bytecode.OpNeq:
		return Bool(!equal(left, right)), nil
	case bytecode.OpAdd:
		switch l := left.ref.(type) {
		case string:
			// String concatenation coerces the right side, matching the
			// JavaScript-flavored semantics of the benchmark sources.
			r, ok := right.ref.(string)
			if !ok {
				r = lang.Format(right.Value())
			}
			if len(l)+len(r) > maxConcat {
				return Slot{}, fmt.Errorf("string too large")
			}
			return Slot{kind: lang.TString, ref: l + r}, nil
		case *lang.List:
			if r, ok := right.ref.(*lang.List); ok {
				if len(l.Items)+len(r.Items) > maxConcat/16 { // an item is a 16-byte interface
					return Slot{}, fmt.Errorf("list too large")
				}
				items := make([]lang.Value, 0, len(l.Items)+len(r.Items))
				items = append(items, l.Items...)
				items = append(items, r.Items...)
				return Slot{kind: lang.TList, ref: &lang.List{Items: items}}, nil
			}
		}
	case bytecode.OpLt, bytecode.OpLte, bytecode.OpGt, bytecode.OpGte:
		l, lok := left.ref.(string)
		r, rok := right.ref.(string)
		if !lok || !rok {
			return Slot{}, fmt.Errorf("cannot compare %s and %s", left.kind, right.kind)
		}
		return ordered(op, strings.Compare(l, r)), nil
	}
	if int(op) < len(opSymbols) && opSymbols[op] != "" {
		return Slot{}, fmt.Errorf("unsupported operand types for %s: %s and %s", opSymbols[op], left.kind, right.kind)
	}
	return Slot{}, fmt.Errorf("unsupported binary op %s", op)
}

// maxConcat caps the bytes one + may produce (the repeat builtin's
// limit): s = s + s in a loop doubles its operand every few ops, which
// no step limit keeps from exhausting the host's memory.
const maxConcat = 64 << 20

// opSymbols names the arithmetic operators in type errors.
var opSymbols = [...]string{
	bytecode.OpAdd: "+", bytecode.OpSub: "-", bytecode.OpMul: "*", bytecode.OpDiv: "/", bytecode.OpMod: "%",
}

func intOp(op bytecode.Op, a, b int64) (Slot, error) {
	switch op {
	case bytecode.OpAdd:
		return Int(a + b), nil
	case bytecode.OpSub:
		return Int(a - b), nil
	case bytecode.OpMul:
		return Int(a * b), nil
	case bytecode.OpDiv:
		if b == 0 {
			return Slot{}, fmt.Errorf("division by zero")
		}
		return Int(a / b), nil
	case bytecode.OpMod:
		if b == 0 {
			return Slot{}, fmt.Errorf("modulo by zero")
		}
		return Int(a % b), nil
	case bytecode.OpEq:
		return Bool(a == b), nil
	case bytecode.OpNeq:
		return Bool(a != b), nil
	case bytecode.OpLt:
		return Bool(a < b), nil
	case bytecode.OpLte:
		return Bool(a <= b), nil
	case bytecode.OpGt:
		return Bool(a > b), nil
	case bytecode.OpGte:
		return Bool(a >= b), nil
	}
	return Slot{}, fmt.Errorf("unsupported binary op %s", op)
}

// floatOp is the mixed int/float and float/float path: an int operand
// has already been widened.
func floatOp(op bytecode.Op, a, b float64) (Slot, error) {
	switch op {
	case bytecode.OpAdd:
		return Float(a + b), nil
	case bytecode.OpSub:
		return Float(a - b), nil
	case bytecode.OpMul:
		return Float(a * b), nil
	case bytecode.OpDiv:
		return Float(a / b), nil
	case bytecode.OpMod:
		return Slot{}, fmt.Errorf("modulo of floats")
	case bytecode.OpEq:
		return Bool(a == b), nil
	case bytecode.OpNeq:
		return Bool(a != b), nil
	case bytecode.OpLt, bytecode.OpLte, bytecode.OpGt, bytecode.OpGte:
		// Three-way first: a NaN operand orders as equal, so NaN <= x
		// holds while NaN < x does not.
		cmp := 0
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
		return ordered(op, cmp), nil
	}
	return Slot{}, fmt.Errorf("unsupported binary op %s", op)
}

// ordered turns a three-way comparison into the result of a relational
// operator.
func ordered(op bytecode.Op, cmp int) Slot {
	switch op {
	case bytecode.OpLt:
		return Bool(cmp < 0)
	case bytecode.OpLte:
		return Bool(cmp <= 0)
	case bytecode.OpGt:
		return Bool(cmp > 0)
	default:
		return Bool(cmp >= 0)
	}
}

// equal is lang.Equal for a pair that is not two numbers (BinaryOp has
// dealt with those): inline kinds compare by kind and word, references
// structurally.
func equal(left, right Slot) bool {
	if left.ref == nil || right.ref == nil {
		return left.kind == right.kind && left.word == right.word
	}
	return lang.Equal(left.ref, right.ref)
}

// Negate implements unary minus.
func Negate(s Slot) (Slot, error) {
	switch s.kind {
	case lang.TInt:
		return Int(-int64(s.word)), nil
	case lang.TFloat:
		return Float(-s.float()), nil
	default:
		return Slot{}, fmt.Errorf("cannot negate %s", s.kind)
	}
}

// MakeMap builds a map literal from its (key, value) pairs in source
// order; a later duplicate key wins.
func MakeMap(pairs []lang.Value) (*lang.Map, error) {
	m := lang.NewMap()
	for i := 0; i < len(pairs); i += 2 {
		key, ok := pairs[i].(string)
		if !ok {
			return nil, fmt.Errorf("map key must be string, got %s", lang.TypeOf(pairs[i]))
		}
		m.Items[key] = pairs[i+1]
	}
	return m, nil
}

// Index implements container[key] for lists (int index, negative wraps),
// maps (string key, missing yields null), and strings (int index).
func Index(container, key Slot) (Slot, error) {
	switch c := container.ref.(type) {
	case *lang.List:
		idx, err := wrapIndex("list", key, len(c.Items))
		if err != nil {
			return Slot{}, err
		}
		return SlotOf(c.Items[idx]), nil
	case *lang.Map:
		k, ok := key.ref.(string)
		if !ok {
			return Slot{}, fmt.Errorf("map key must be string, got %s", key.kind)
		}
		return SlotOf(c.Items[k]), nil
	case string:
		idx, err := wrapIndex("string", key, len(c))
		if err != nil {
			return Slot{}, err
		}
		return Slot{kind: lang.TString, ref: string(c[idx])}, nil
	default:
		return Slot{}, fmt.Errorf("cannot index %s", container.kind)
	}
}

// wrapIndex resolves an int key against a sequence of length n: a
// negative index counts from the end.
func wrapIndex(what string, key Slot, n int) (int64, error) {
	if key.kind != lang.TInt {
		return 0, fmt.Errorf("%s index must be int, got %s", what, key.kind)
	}
	idx := int64(key.word)
	if idx < 0 {
		idx += int64(n)
	}
	if idx < 0 || idx >= int64(n) {
		return 0, fmt.Errorf("%s index %d out of range (len %d)", what, idx, n)
	}
	return idx, nil
}

// SetIndex implements container[key] = value for lists and maps; the
// stored value is boxed here.
func SetIndex(container, key, value Slot) error {
	switch c := container.ref.(type) {
	case *lang.List:
		idx, err := wrapIndex("list", key, len(c.Items))
		if err != nil {
			return err
		}
		c.Items[idx] = value.Value()
		return nil
	case *lang.Map:
		k, ok := key.ref.(string)
		if !ok {
			return fmt.Errorf("map key must be string, got %s", key.kind)
		}
		c.Items[k] = value.Value()
		return nil
	default:
		return fmt.Errorf("cannot index-assign %s", container.kind)
	}
}
