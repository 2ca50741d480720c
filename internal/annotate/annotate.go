// Package annotate implements Fireworks' automatic source code
// annotator (§3.2 of the paper). At install it rewrites the parsed
// user function — the tree platform.Validate returns — into the program
// the platform compiles and snapshots:
//
//  1. every top-level function gains a @jit(cache=true) decorator, so
//     the runtime's JIT (Numba for Python; V8's equivalent hooks for
//     Node.js) is allowed to compile it;
//  2. a __fireworks_jit() driver is appended that calls the entry point
//     with default parameters, forcing JIT compilation of the whole
//     call graph during the install phase;
//  3. a __fireworks_snapshot() helper is appended that asks the host
//     (over the hypervisor API bridge) to take the VM snapshot;
//  4. a __fireworks_main() program entry is appended that runs the two
//     steps above and then — this is the line execution resumes at
//     after every snapshot restore — fetches the real invocation
//     parameters from the per-instance message queue and calls the
//     original entry point.
//
// The rewrite works on the tree, so the user's declarations keep their
// source lines and guest errors name them. Annotate renders the same
// decisions as source text, for readers who want to see the program.
//
// The host-bridge functions (__fireworks_default_params,
// __fireworks_snapshot_request, __fireworks_fetch_params) are natives
// installed into the guest runtime by the Fireworks framework.
package annotate

import (
	"fmt"
	"strings"

	"repro/internal/lang"
)

// Options configures the annotator.
type Options struct {
	// Entry is the serverless function's entry point; "main" if empty.
	Entry string
}

func (o Options) entry() string {
	if o.Entry == "" {
		return "main"
	}
	return o.Entry
}

// Result is the annotated source plus what the annotator did.
type Result struct {
	Source string
}

// reserved prefixes the names of the functions the annotator appends.
const reserved = "__fireworks_"

// drivers are the functions driverSource declares.
var drivers = []string{"__fireworks_jit", "__fireworks_snapshot", "__fireworks_continue", "__fireworks_main"}

// Tree annotates a parsed user program in place: it decorates every
// top-level function lacking @jit with @jit(cache=true) and appends the
// Fireworks drivers, which call opts.Entry. It returns the declarations
// it decorated, in source order. The entry's existence and arity are
// platform.Validate's or Annotate's to check; on error discard prog.
func Tree(prog *lang.Program, opts Options) ([]*lang.FuncDecl, error) {
	var decorated []*lang.FuncDecl
	for _, fn := range prog.Functions() {
		if strings.HasPrefix(fn.Name, reserved) {
			return nil, fmt.Errorf("annotate: user source defines reserved function %q", fn.Name)
		}
		if !fn.HasAnnotation("jit") {
			fn.Annotations = append(fn.Annotations, lang.Annotation{Name: "jit", Args: map[string]string{"cache": "true"}})
			decorated = append(decorated, fn)
		}
	}
	driver, err := lang.Parse(driverSource(opts.entry()))
	if err != nil {
		return nil, fmt.Errorf("annotate: driver for entry %q: %w", opts.entry(), err)
	}
	prog.Stmts = append(prog.Stmts, driver.Stmts...)

	// The installed program must expose the Fireworks entry points and
	// leave no user function without its @jit.
	for _, name := range drivers {
		if prog.Function(name) == nil {
			return nil, fmt.Errorf("annotate: installed program lacks %q", name)
		}
	}
	for _, fn := range prog.Functions() {
		if !strings.HasPrefix(fn.Name, reserved) && !fn.HasAnnotation("jit") {
			return nil, fmt.Errorf("annotate: function %q missed its @jit annotation", fn.Name)
		}
	}
	return decorated, nil
}

// Annotate parses user source, annotates it as Tree does, and renders
// the result as source text: a @jit(cache=true) line before each
// decorated declaration, indented like the line it precedes, then the
// drivers. It fails on a parse error, a bad entry, or an error from Tree.
func Annotate(src string, opts Options) (*Result, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("annotate: user source: %w", err)
	}
	if e := prog.Function(opts.entry()); e == nil {
		return nil, fmt.Errorf("annotate: entry function %q not found", opts.entry())
	} else if len(e.Params) != 1 {
		return nil, fmt.Errorf("annotate: entry %q must take exactly one params argument, has %d", opts.entry(), len(e.Params))
	}
	decorated, err := Tree(prog, opts)
	if err != nil {
		return nil, err
	}
	var out strings.Builder
	next := 0
	for i, text := range strings.Split(src, "\n") {
		indent := text[:len(text)-len(strings.TrimLeft(text, " \t"))]
		done := 0
		for ; next < len(decorated) && decorated[next].Line() == i+1; next++ {
			at := decorated[next].Tok.Col - 1 // the `func` keyword
			out.WriteString(text[done:at])
			out.WriteString("@jit(cache=true)\n")
			out.WriteString(indent)
			done = at
		}
		out.WriteString(text[done:])
		out.WriteByte('\n')
	}
	out.WriteString(driverSource(opts.entry()))
	return &Result{Source: out.String()}, nil
}

// driverSource generates the appended Fireworks driver, a FaaSLang
// rendition of Figure 3 in the paper.
func driverSource(entry string) string {
	return fmt.Sprintf(`
// ---- added by the Fireworks code annotator ----

// Trigger JIT compilation of all user functions by running the entry
// point once with default parameters.
func __fireworks_jit() {
  %[1]s(__fireworks_default_params());
}

// Ask the host to create a VM snapshot via the hypervisor API.
func __fireworks_snapshot() {
  __fireworks_snapshot_request();
}

// The post-snapshot continuation: a restored VM resumes here. It first
// reads its parameters from the per-instance queue (identified via
// MMDS), then runs the original entry point.
func __fireworks_continue() {
  let __fw_params = __fireworks_fetch_params();
  return %[1]s(__fw_params);
}

// This is where program execution starts the first time. Execution of
// every restored snapshot resumes right after __fireworks_snapshot()
// returns, i.e. inside __fireworks_continue().
func __fireworks_main() {
  __fireworks_jit();
  __fireworks_snapshot();
  return __fireworks_continue();
}
`, entry)
}
