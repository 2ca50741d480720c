package lang

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Value is a FaaSLang runtime value. The dynamic types are:
//
//	nil        — null
//	bool       — booleans
//	int64      — integers
//	float64    — floats
//	string     — strings
//	*List      — mutable lists
//	*Map       — mutable string-keyed maps
//	*Native    — host (builtin) functions
//
// Bytecode closures are defined in lang/bytecode (they need the compiled
// chunk type) and also flow through Value.
type Value = any

// List is a mutable FaaSLang list.
type List struct {
	Items []Value
}

// Map is a mutable string-keyed FaaSLang map.
type Map struct {
	Items map[string]Value
}

// NewMap returns an empty map.
func NewMap() *Map { return &Map{Items: make(map[string]Value)} }

// SortedKeys returns the map's keys in lexical order (deterministic
// iteration for for-in loops and printing).
func (m *Map) SortedKeys() []string {
	keys := make([]string, 0, len(m.Items))
	for k := range m.Items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Native is a builtin function provided by the host runtime.
type Native struct {
	Name string
	// Arity is the required argument count, or -1 for variadic.
	Arity int
	Fn    func(args []Value) (Value, error)
}

// Type is a compact dynamic-type tag used for JIT type feedback and
// guard checks.
type Type uint8

// Dynamic type tags.
const (
	TNull Type = iota
	TBool
	TInt
	TFloat
	TString
	TList
	TMap
	TFunc
	TOther
)

var typeNames = [...]string{"null", "bool", "int", "float", "string", "list", "map", "func", "other"}

// String returns the type tag's name.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "invalid"
}

// TypeName is implemented by function-like values defined outside this
// package (bytecode closures) so TypeOf can classify them.
type TypeName interface{ FaaSLangType() Type }

// TypeOf returns the dynamic type tag of v.
func TypeOf(v Value) Type {
	switch v := v.(type) {
	case nil:
		return TNull
	case bool:
		return TBool
	case int64:
		return TInt
	case float64:
		return TFloat
	case string:
		return TString
	case *List:
		return TList
	case *Map:
		return TMap
	case *Native:
		return TFunc
	case TypeName:
		return v.FaaSLangType()
	default:
		return TOther
	}
}

// Truthy reports FaaSLang truthiness: null and false are falsy, zero
// numbers and empty strings/containers are falsy, all else truthy.
func Truthy(v Value) bool {
	switch v := v.(type) {
	case nil:
		return false
	case bool:
		return v
	case int64:
		return v != 0
	case float64:
		return v != 0
	case string:
		return v != ""
	case *List:
		return len(v.Items) > 0
	case *Map:
		return len(v.Items) > 0
	default:
		return true
	}
}

// Equal reports FaaSLang equality: numbers compare across int/float,
// lists and maps compare structurally.
func Equal(a, b Value) bool { return equal(a, b, nil) }

// containerPair is one comparison of two containers in progress. A guest
// can build a cyclic list with push(l, l), so Equal, Format and the host
// conversions remember the containers on their current path: recursing
// through a cycle would overflow the Go stack, which no recover catches.
type containerPair struct{ a, b Value }

// equal compares under the assumption that the pairs on path are equal
// (they are being compared further up the stack).
func equal(a, b Value, path []containerPair) bool {
	switch av := a.(type) {
	case nil:
		return b == nil
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case int64:
		switch bv := b.(type) {
		case int64:
			return av == bv
		case float64:
			return float64(av) == bv
		}
		return false
	case float64:
		switch bv := b.(type) {
		case int64:
			return av == float64(bv)
		case float64:
			return av == bv
		}
		return false
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case *List:
		bv, ok := b.(*List)
		if !ok || len(av.Items) != len(bv.Items) {
			return false
		}
		if slices.Contains(path, containerPair{a, b}) {
			return true
		}
		path = append(path, containerPair{a, b})
		for i := range av.Items {
			if !equal(av.Items[i], bv.Items[i], path) {
				return false
			}
		}
		return true
	case *Map:
		bv, ok := b.(*Map)
		if !ok || len(av.Items) != len(bv.Items) {
			return false
		}
		if slices.Contains(path, containerPair{a, b}) {
			return true
		}
		path = append(path, containerPair{a, b})
		for k, v := range av.Items {
			bvv, ok := bv.Items[k]
			if !ok || !equal(v, bvv, path) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// Format renders a value the way FaaSLang's print and str builtins do.
// A container met again inside itself renders as [...] or {...}.
func Format(v Value) string { return format(v, nil) }

func format(v Value, path []Value) string {
	switch v := v.(type) {
	case nil:
		return "null"
	case bool:
		if v {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case string:
		return v
	case *List:
		if slices.Contains(path, Value(v)) {
			return "[...]"
		}
		path = append(path, v)
		var sb strings.Builder
		sb.WriteByte('[')
		for i, item := range v.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(formatQuoted(item, path))
		}
		sb.WriteByte(']')
		return sb.String()
	case *Map:
		if slices.Contains(path, Value(v)) {
			return "{...}"
		}
		path = append(path, v)
		var sb strings.Builder
		sb.WriteByte('{')
		for i, k := range v.SortedKeys() {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%q: %s", k, formatQuoted(v.Items[k], path))
		}
		sb.WriteByte('}')
		return sb.String()
	case *Native:
		return fmt.Sprintf("<native %s>", v.Name)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// formatQuoted is format except strings render quoted, for container
// elements.
func formatQuoted(v Value, path []Value) string {
	if s, ok := v.(string); ok {
		return strconv.Quote(s)
	}
	return format(v, path)
}
