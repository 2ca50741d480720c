package platform

import (
	"fmt"
	"time"

	"repro/internal/couchdb"
	"repro/internal/fs"
	"repro/internal/lang"
	"repro/internal/runtime"
	"repro/internal/sandbox"
	"repro/internal/vclock"
)

// CostDBProcess is the database-side processing latency per CouchDB
// operation, on top of the sandbox's network cost.
const CostDBProcess = 260 * time.Microsecond

// NativeBinding assembles the host-bridge natives a guest sees: disk
// and network I/O charged at the sandbox's rates, CouchDB access, HTTP
// responses, and same-platform chain invocation. A binding is installed
// per invocation so that charges land on the right clock and
// responses reach the right caller.
type NativeBinding struct {
	// Profile prices the guest's I/O.
	Profile sandbox.Profile
	// FS is the guest-visible filesystem.
	FS fs.FS
	// Couch, when set, enables the db_* natives.
	Couch *couchdb.Server
	// Invoke, when set, enables same-platform function chaining.
	Invoke func(name string, params lang.Value, parent *Invocation) (*Invocation, error)
	// Inv is the invocation the charges and response belong to. It may
	// be swapped between invocations via Rebind without re-installing.
	Inv *Invocation
	// Priming suppresses externally visible side effects (HTTP
	// responses, chain invocations) while __fireworks_jit runs the
	// entry with default params at install time.
	Priming bool
}

// Rebind points the binding at a new invocation context.
func (b *NativeBinding) Rebind(inv *Invocation) { b.Inv = inv }

// Install binds the natives into the runtime's globals.
func (b *NativeBinding) Install(rt *runtime.Runtime) {
	natives := make(map[string]*lang.Native)
	reg := func(name string, arity int, fn func(args []lang.Value) (lang.Value, error)) {
		natives[name] = &lang.Native{Name: name, Arity: arity, Fn: fn}
	}

	// file_write and file_append differ only in the file operation.
	write := func(name string, op func(path string, data []byte) error) {
		reg(name, 2, func(args []lang.Value) (lang.Value, error) {
			path, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("%s: path must be string", name)
			}
			data, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("%s: data must be string", name)
			}
			b.chargeDisk(len(data))
			if err := op(path, []byte(data)); err != nil {
				return nil, err
			}
			return int64(len(data)), nil
		})
	}
	write("file_write", func(path string, data []byte) error { return b.FS.WriteFile(path, data) })
	write("file_append", func(path string, data []byte) error { return b.FS.Append(path, data) })

	reg("file_read", 1, func(args []lang.Value) (lang.Value, error) {
		path, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("file_read: path must be string")
		}
		data, err := b.FS.ReadFile(path)
		if err != nil {
			return nil, err
		}
		b.chargeDisk(len(data))
		return string(data), nil
	})

	reg("http_respond", 2, func(args []lang.Value) (lang.Value, error) {
		status, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("http_respond: status must be int")
		}
		body, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("http_respond: body must be string")
		}
		// 500-byte header + body, as faas-netlatency sends.
		b.chargeNet(len(body) + 500)
		if !b.Priming && b.Inv != nil {
			b.Inv.Response = &Response{Status: int(status), Header: "x-faas: simulated", Body: body}
		}
		return nil, nil
	})

	if b.Couch != nil {
		reg("db_put", 2, func(args []lang.Value) (lang.Value, error) {
			name, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("db_put: db name must be string")
			}
			docMap, ok := args[1].(*lang.Map)
			if !ok {
				return nil, fmt.Errorf("db_put: doc must be map")
			}
			goDoc, err := runtime.ToGo(docMap)
			if err != nil {
				return nil, err
			}
			b.chargeDB(len(docMap.Items) * 40)
			db := b.Couch.CreateDB(name)
			stored, err := db.Put(couchdb.Document(goDoc.(map[string]any)))
			if err != nil {
				return nil, err
			}
			return runtime.FromGo(map[string]any(stored))
		})

		reg("db_get", 2, func(args []lang.Value) (lang.Value, error) {
			name, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("db_get: db name must be string")
			}
			id, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("db_get: id must be string")
			}
			b.chargeDB(200)
			db, err := b.Couch.DB(name)
			if err != nil {
				return nil, nil // missing database reads as null
			}
			doc, err := db.Get(id)
			if err != nil {
				return nil, nil // missing doc reads as null in guest code
			}
			return runtime.FromGo(map[string]any(doc))
		})

		reg("db_find", 2, func(args []lang.Value) (lang.Value, error) {
			name, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("db_find: db name must be string")
			}
			sel, ok := args[1].(*lang.Map)
			if !ok {
				return nil, fmt.Errorf("db_find: selector must be map")
			}
			goSel, err := runtime.ToGo(sel)
			if err != nil {
				return nil, err
			}
			b.chargeDB(400)
			db, err := b.Couch.DB(name)
			if err != nil {
				return &lang.List{}, nil
			}
			docs := db.Find(goSel.(map[string]any))
			out := &lang.List{}
			for _, doc := range docs {
				v, err := runtime.FromGo(map[string]any(doc))
				if err != nil {
					return nil, err
				}
				out.Items = append(out.Items, v)
			}
			return out, nil
		})

		reg("db_delete", 3, func(args []lang.Value) (lang.Value, error) {
			name, _ := args[0].(string)
			id, _ := args[1].(string)
			rev, _ := args[2].(string)
			b.chargeDB(100)
			db, err := b.Couch.DB(name)
			if err != nil {
				return nil, err
			}
			return nil, db.Delete(id, rev)
		})
	}

	if b.Invoke != nil {
		reg("invoke", 2, func(args []lang.Value) (lang.Value, error) {
			name, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("invoke: function name must be string")
			}
			b.chargeNet(180) // request message to the controller
			child, err := b.Invoke(name, args[1], b.Inv)
			if err != nil {
				if b.Priming {
					// Install-time priming runs the real chain (the
					// paper's __fireworks_jit executes the function for
					// real), but tolerates targets that are not
					// installed yet: they are primed by their own
					// installation.
					return nil, nil
				}
				return nil, fmt.Errorf("invoke %s: %w", name, err)
			}
			return child.Result, nil
		})
	}

	rt.InstallNatives(natives)
}

// chargeDisk charges into the caller's phase, not "others": disk time
// spent inside the function call is attributed to execution,
// matching the paper's reading of faas-diskio ("the execution time in
// I/O-intensive workloads is mostly determined by the I/O efficiency of
// the sandbox mechanism used").
func (b *NativeBinding) chargeDisk(bytes int) {
	if b.Inv == nil {
		return
	}
	kb := (bytes + 1023) / 1024
	d := b.Profile.DiskOpBase + time.Duration(kb)*b.Profile.DiskPerKB + b.Profile.SyscallOverhead
	b.Inv.Clock.Charge("disk-io", d)
}

func (b *NativeBinding) chargeNet(bytes int) {
	if b.Inv != nil {
		b.Inv.Clock.ChargeIn(vclock.Others, "net-io", b.netCost(bytes))
	}
}

func (b *NativeBinding) chargeDB(bytes int) {
	if b.Inv != nil {
		b.Inv.Clock.ChargeIn(vclock.Others, "db-io", b.netCost(bytes)+CostDBProcess)
	}
}

// netCost is one guest network operation moving bytes.
func (b *NativeBinding) netCost(bytes int) time.Duration {
	return b.Profile.NetOpBase + PerKB(b.Profile, bytes) + b.Profile.SyscallOverhead
}
