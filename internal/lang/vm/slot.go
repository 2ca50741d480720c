package vm

import (
	"math"

	"repro/internal/lang"
)

// Slot is one cell of an activation's operand stack or locals. Null, bool, int
// and float values live inline in word, so arithmetic, comparisons and
// loop counters allocate nothing; every other kind (string, list, map,
// function, iterator) is a reference in ref. The zero Slot is null.
//
// Slots exist only inside the executor. Everything the rest
// of the program can see — constants, globals, list and map elements,
// call arguments and results — is a lang.Value, converted at that
// boundary by SlotOf and Value.
type Slot struct {
	kind lang.Type // lang.TypeOf of the value; kinds above TFloat keep it in ref
	word uint64
	ref  lang.Value
}

// Int returns the slot holding i.
func Int(i int64) Slot { return Slot{kind: lang.TInt, word: uint64(i)} }

// Float returns the slot holding f.
func Float(f float64) Slot { return Slot{kind: lang.TFloat, word: math.Float64bits(f)} }

// Bool returns the slot holding b.
func Bool(b bool) Slot {
	if b {
		return Slot{kind: lang.TBool, word: 1}
	}
	return Slot{kind: lang.TBool}
}

// SlotOf unboxes a value coming off the heap.
func SlotOf(v lang.Value) Slot {
	switch v := v.(type) {
	case nil:
		return Slot{}
	case bool:
		return Bool(v)
	case int64:
		return Int(v)
	case float64:
		return Float(v)
	default:
		return Slot{kind: lang.TypeOf(v), ref: v}
	}
}

// Value boxes the slot for the heap; this is where an int or float
// computed on the stack is finally allocated.
func (s Slot) Value() lang.Value {
	switch s.kind {
	case lang.TNull:
		return nil
	case lang.TBool:
		return s.word != 0
	case lang.TInt:
		return int64(s.word)
	case lang.TFloat:
		return s.float()
	default:
		return s.ref
	}
}

// values boxes slots into a fresh slice: call arguments and container
// literals leaving the operand stack for the heap.
func values(slots []Slot) []lang.Value {
	vals := make([]lang.Value, len(slots))
	for i, s := range slots {
		vals[i] = s.Value()
	}
	return vals
}

// IsInt reports whether the slot holds an int; Int64 then returns it.
func (s Slot) IsInt() bool { return s.kind == lang.TInt }

// Int64 returns the int an IsInt slot holds.
func (s Slot) Int64() int64 { return int64(s.word) }

// Truthy is lang.Truthy on the slot.
func (s Slot) Truthy() bool {
	switch s.kind {
	case lang.TNull:
		return false
	case lang.TBool, lang.TInt:
		return s.word != 0
	case lang.TFloat:
		return s.float() != 0
	default:
		return lang.Truthy(s.ref)
	}
}

func (s Slot) float() float64 { return math.Float64frombits(s.word) }

// number returns the slot's value as a float64 and whether it is an int
// or a float at all.
func (s Slot) number() (float64, bool) {
	switch s.kind {
	case lang.TInt:
		return float64(int64(s.word)), true
	case lang.TFloat:
		return s.float(), true
	default:
		return 0, false
	}
}
