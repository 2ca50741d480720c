package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/lang"
)

// installBuiltins binds FaaSLang's standard library into the VM globals.
// These are the language-level builtins every runtime personality
// provides; host-bridge natives (file I/O, HTTP, queues, databases) are
// installed separately by the sandbox via InstallNatives. Only print
// (the runtime's Stdout) and now_ms (its clock) read per-runtime state
// and are bound here; the rest are the process-wide pureBuiltins.
func (r *Runtime) installBuiltins() {
	g := r.VM.Globals
	for _, n := range pureBuiltins {
		g[n.Name] = n
	}
	g["print"] = &lang.Native{Name: "print", Arity: -1, Fn: r.print}
	g["now_ms"] = &lang.Native{Name: "now_ms", Arity: 0, Fn: r.nowMS}
}

func (r *Runtime) print(args []lang.Value) (lang.Value, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = lang.Format(a)
	}
	fmt.Fprintln(&r.Stdout, strings.Join(parts, " "))
	return nil, nil
}

func (r *Runtime) nowMS(args []lang.Value) (lang.Value, error) {
	return r.Clock.Now().Milliseconds(), nil
}

// pureBuiltins are the builtins that capture nothing. A revival binds
// them without building them: every runtime of the process shares the
// same immutable natives.
var pureBuiltins = newPureBuiltins()

func newPureBuiltins() []*lang.Native {
	var natives []*lang.Native
	reg := func(name string, arity int, fn func(args []lang.Value) (lang.Value, error)) {
		natives = append(natives, &lang.Native{Name: name, Arity: arity, Fn: fn})
	}

	reg("len", 1, func(args []lang.Value) (lang.Value, error) {
		switch v := args[0].(type) {
		case string:
			return int64(len(v)), nil
		case *lang.List:
			return int64(len(v.Items)), nil
		case *lang.Map:
			return int64(len(v.Items)), nil
		default:
			return nil, fmt.Errorf("len: unsupported type %s", lang.TypeOf(v))
		}
	})

	reg("str", 1, func(args []lang.Value) (lang.Value, error) {
		return lang.Format(args[0]), nil
	})

	reg("int", 1, func(args []lang.Value) (lang.Value, error) {
		switch v := args[0].(type) {
		case int64:
			return v, nil
		case float64:
			return int64(v), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("int: cannot parse %q", v)
			}
			return n, nil
		case bool:
			if v {
				return int64(1), nil
			}
			return int64(0), nil
		default:
			return nil, fmt.Errorf("int: unsupported type %s", lang.TypeOf(v))
		}
	})

	reg("float", 1, func(args []lang.Value) (lang.Value, error) {
		switch v := args[0].(type) {
		case int64:
			return float64(v), nil
		case float64:
			return v, nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, fmt.Errorf("float: cannot parse %q", v)
			}
			return f, nil
		default:
			return nil, fmt.Errorf("float: unsupported type %s", lang.TypeOf(v))
		}
	})

	reg("type", 1, func(args []lang.Value) (lang.Value, error) {
		return lang.TypeOf(args[0]).String(), nil
	})

	reg("push", 2, func(args []lang.Value) (lang.Value, error) {
		l, ok := args[0].(*lang.List)
		if !ok {
			return nil, fmt.Errorf("push: first arg must be list, got %s", lang.TypeOf(args[0]))
		}
		l.Items = append(l.Items, args[1])
		return l, nil
	})

	reg("pop", 1, func(args []lang.Value) (lang.Value, error) {
		l, ok := args[0].(*lang.List)
		if !ok {
			return nil, fmt.Errorf("pop: first arg must be list, got %s", lang.TypeOf(args[0]))
		}
		if len(l.Items) == 0 {
			return nil, fmt.Errorf("pop: empty list")
		}
		v := l.Items[len(l.Items)-1]
		l.Items = l.Items[:len(l.Items)-1]
		return v, nil
	})

	reg("keys", 1, func(args []lang.Value) (lang.Value, error) {
		m, ok := args[0].(*lang.Map)
		if !ok {
			return nil, fmt.Errorf("keys: arg must be map, got %s", lang.TypeOf(args[0]))
		}
		out := &lang.List{}
		for _, k := range m.SortedKeys() {
			out.Items = append(out.Items, k)
		}
		return out, nil
	})

	reg("has", 2, func(args []lang.Value) (lang.Value, error) {
		m, ok := args[0].(*lang.Map)
		if !ok {
			return nil, fmt.Errorf("has: first arg must be map, got %s", lang.TypeOf(args[0]))
		}
		k, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("has: key must be string")
		}
		_, present := m.Items[k]
		return present, nil
	})

	reg("remove", 2, func(args []lang.Value) (lang.Value, error) {
		m, ok := args[0].(*lang.Map)
		if !ok {
			return nil, fmt.Errorf("remove: first arg must be map, got %s", lang.TypeOf(args[0]))
		}
		k, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("remove: key must be string")
		}
		delete(m.Items, k)
		return nil, nil
	})

	reg("range", 1, func(args []lang.Value) (lang.Value, error) {
		n, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("range: arg must be int, got %s", lang.TypeOf(args[0]))
		}
		if n < 0 || n > 50_000_000 {
			return nil, fmt.Errorf("range: %d out of supported range", n)
		}
		items := make([]lang.Value, n)
		for i := int64(0); i < n; i++ {
			items[i] = i
		}
		return &lang.List{Items: items}, nil
	})

	reg("join", 2, func(args []lang.Value) (lang.Value, error) {
		l, ok := args[0].(*lang.List)
		if !ok {
			return nil, fmt.Errorf("join: first arg must be list")
		}
		sep, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("join: separator must be string")
		}
		parts := make([]string, len(l.Items))
		for i, v := range l.Items {
			parts[i] = lang.Format(v)
		}
		return strings.Join(parts, sep), nil
	})

	reg("split", 2, func(args []lang.Value) (lang.Value, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("split: first arg must be string")
		}
		sep, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("split: separator must be string")
		}
		out := &lang.List{}
		for _, part := range strings.Split(s, sep) {
			out.Items = append(out.Items, part)
		}
		return out, nil
	})

	reg("substr", 3, func(args []lang.Value) (lang.Value, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("substr: first arg must be string")
		}
		start, ok1 := args[1].(int64)
		length, ok2 := args[2].(int64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("substr: start and length must be ints")
		}
		if start < 0 {
			start = 0
		}
		if start > int64(len(s)) {
			start = int64(len(s))
		}
		end := start + length
		if end > int64(len(s)) {
			end = int64(len(s))
		}
		if end < start {
			end = start
		}
		return s[start:end], nil
	})

	reg("contains", 2, func(args []lang.Value) (lang.Value, error) {
		switch c := args[0].(type) {
		case string:
			sub, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("contains: needle must be string")
			}
			return strings.Contains(c, sub), nil
		case *lang.List:
			for _, item := range c.Items {
				if lang.Equal(item, args[1]) {
					return true, nil
				}
			}
			return false, nil
		default:
			return nil, fmt.Errorf("contains: unsupported type %s", lang.TypeOf(c))
		}
	})

	reg("upper", 1, func(args []lang.Value) (lang.Value, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("upper: arg must be string")
		}
		return strings.ToUpper(s), nil
	})

	reg("lower", 1, func(args []lang.Value) (lang.Value, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("lower: arg must be string")
		}
		return strings.ToLower(s), nil
	})

	reg("trim", 1, func(args []lang.Value) (lang.Value, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("trim: arg must be string")
		}
		return strings.TrimSpace(s), nil
	})

	reg("repeat", 2, func(args []lang.Value) (lang.Value, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("repeat: first arg must be string")
		}
		n, ok := args[1].(int64)
		if !ok || n < 0 {
			return nil, fmt.Errorf("repeat: count must be a non-negative int")
		}
		if len(s) > 0 && n > (64<<20)/int64(len(s)) {
			return nil, fmt.Errorf("repeat: result too large")
		}
		return strings.Repeat(s, int(n)), nil
	})

	reg("abs", 1, func(args []lang.Value) (lang.Value, error) {
		switch v := args[0].(type) {
		case int64:
			if v < 0 {
				return -v, nil
			}
			return v, nil
		case float64:
			return math.Abs(v), nil
		default:
			return nil, fmt.Errorf("abs: unsupported type %s", lang.TypeOf(v))
		}
	})

	reg("min", 2, numPair("min", func(a, b float64) float64 { return math.Min(a, b) }))
	reg("max", 2, numPair("max", func(a, b float64) float64 { return math.Max(a, b) }))

	reg("floor", 1, func(args []lang.Value) (lang.Value, error) {
		switch v := args[0].(type) {
		case int64:
			return v, nil
		case float64:
			return int64(math.Floor(v)), nil
		default:
			return nil, fmt.Errorf("floor: unsupported type %s", lang.TypeOf(v))
		}
	})

	reg("sqrt", 1, func(args []lang.Value) (lang.Value, error) {
		switch v := args[0].(type) {
		case int64:
			return math.Sqrt(float64(v)), nil
		case float64:
			return math.Sqrt(v), nil
		default:
			return nil, fmt.Errorf("sqrt: unsupported type %s", lang.TypeOf(v))
		}
	})

	reg("json_encode", 1, func(args []lang.Value) (lang.Value, error) {
		goVal, err := ToGo(args[0])
		if err != nil {
			return nil, fmt.Errorf("json_encode: %w", err)
		}
		data, err := json.Marshal(goVal)
		if err != nil {
			return nil, fmt.Errorf("json_encode: %w", err)
		}
		return string(data), nil
	})

	reg("json_decode", 1, func(args []lang.Value) (lang.Value, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("json_decode: arg must be string")
		}
		return ParseJSON([]byte(s))
	})
	return natives
}

func numPair(name string, fn func(a, b float64) float64) func(args []lang.Value) (lang.Value, error) {
	return func(args []lang.Value) (lang.Value, error) {
		af, aInt, err := asFloat(name, args[0])
		if err != nil {
			return nil, err
		}
		bf, bInt, err := asFloat(name, args[1])
		if err != nil {
			return nil, err
		}
		res := fn(af, bf)
		if aInt && bInt {
			return int64(res), nil
		}
		return res, nil
	}
}

func asFloat(name string, v lang.Value) (float64, bool, error) {
	switch v := v.(type) {
	case int64:
		return float64(v), true, nil
	case float64:
		return v, false, nil
	default:
		return 0, false, fmt.Errorf("%s: unsupported type %s", name, lang.TypeOf(v))
	}
}

// ToGo converts a FaaSLang value into plain Go data (for JSON encoding
// and host interop). A cyclic value (push(l, l)) is an error.
func ToGo(v lang.Value) (any, error) { return toGo(v, nil) }

func toGo(v lang.Value, path []lang.Value) (any, error) {
	switch v := v.(type) {
	case nil, bool, int64, float64, string:
		return v, nil
	case *lang.List:
		path, err := descend(path, v)
		if err != nil {
			return nil, err
		}
		out := make([]any, len(v.Items))
		for i, item := range v.Items {
			g, err := toGo(item, path)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		return out, nil
	case *lang.Map:
		path, err := descend(path, v)
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, len(v.Items))
		for k, item := range v.Items {
			g, err := toGo(item, path)
			if err != nil {
				return nil, err
			}
			out[k] = g
		}
		return out, nil
	default:
		return nil, fmt.Errorf("cannot convert %s to host data", lang.TypeOf(v))
	}
}

// descend adds container to the path of containers being converted, or
// fails if it is already there: recursing through a cycle would
// overflow the Go stack, which no recover catches.
func descend(path []lang.Value, container lang.Value) ([]lang.Value, error) {
	if slices.Contains(path, container) {
		return nil, fmt.Errorf("cannot convert a cyclic %s to host data", lang.TypeOf(container))
	}
	return append(path, container), nil
}

// FromGo converts plain Go data (JSON-shaped) into FaaSLang values.
func FromGo(v any) (lang.Value, error) {
	switch v := v.(type) {
	case nil, bool, int64, float64, string:
		return v, nil
	case int:
		return int64(v), nil
	case json.Number:
		if n, err := v.Int64(); err == nil {
			return n, nil
		}
		f, err := v.Float64()
		if err != nil {
			return nil, err
		}
		return f, nil
	case []any:
		out := &lang.List{Items: make([]lang.Value, len(v))}
		for i, item := range v {
			fv, err := FromGo(item)
			if err != nil {
				return nil, err
			}
			out.Items[i] = fv
		}
		return out, nil
	case map[string]any:
		out := lang.NewMap()
		for k, item := range v {
			fv, err := FromGo(item)
			if err != nil {
				return nil, err
			}
			out.Items[k] = fv
		}
		return out, nil
	default:
		return nil, fmt.Errorf("cannot convert %T to FaaSLang value", v)
	}
}

// ParseJSON parses a JSON document — one value, nothing but whitespace
// after it — into FaaSLang values, preserving integers as int64.
func ParseJSON(data []byte) (lang.Value, error) { return decodeJSON(data, true) }

// DecodeJSON is ParseJSON that ignores what follows the first value. The
// engine's recorded fuzz corpora were decoded so; requests and guest
// text go through ParseJSON.
func DecodeJSON(data []byte) (lang.Value, error) { return decodeJSON(data, false) }

func decodeJSON(data []byte, whole bool) (lang.Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	err := dec.Decode(&raw)
	if err == nil && whole {
		err = EndOfJSON(dec)
	}
	if err != nil {
		return nil, fmt.Errorf("json_decode: %w", err)
	}
	return FromGo(raw)
}

// EndOfJSON fails unless only whitespace follows the value dec last
// decoded: a second value, stray text or a read error.
func EndOfJSON(dec *json.Decoder) error {
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("trailing data after the JSON value")
	default:
		return err
	}
}

// EncodeJSON renders a FaaSLang value as JSON bytes.
func EncodeJSON(v lang.Value) ([]byte, error) {
	goVal, err := ToGo(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(goVal)
}
