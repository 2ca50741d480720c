// Package annotate implements Fireworks' automatic source code
// annotator (§3.2 of the paper). Given a user-provided serverless
// function, it produces the instrumented source the platform actually
// installs:
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

// Result is the annotated source plus what the annotator did.
type Result struct {
	Source string
}

// Annotate transforms user source per the Fireworks install procedure.
// It fails if the source does not parse or lacks the entry function.
func Annotate(src string, opts Options) (*Result, error) {
	entry := opts.Entry
	if entry == "" {
		entry = "main"
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("annotate: user source: %w", err)
	}
	entryFn := prog.Function(entry)
	if entryFn == nil {
		return nil, fmt.Errorf("annotate: entry function %q not found", entry)
	}
	if len(entryFn.Params) != 1 {
		return nil, fmt.Errorf("annotate: entry %q must take exactly one params argument, has %d",
			entry, len(entryFn.Params))
	}
	for _, fn := range prog.Functions() {
		if strings.HasPrefix(fn.Name, "__fireworks_") {
			return nil, fmt.Errorf("annotate: user source defines reserved function %q", fn.Name)
		}
	}

	// Insert @jit(cache=true) before every un-annotated top-level
	// function declaration, line-based so the user's source text is
	// otherwise preserved byte for byte.
	needJit := make(map[int]bool) // line number of the `func` keyword
	for _, fn := range prog.Functions() {
		if fn.HasAnnotation("jit") {
			continue
		}
		var line int
		fmt.Sscanf(fn.Pos(), "%d", &line)
		needJit[line] = true
	}
	lines := strings.Split(src, "\n")
	var out strings.Builder
	for i, text := range lines {
		if needJit[i+1] {
			indent := text[:len(text)-len(strings.TrimLeft(text, " \t"))]
			out.WriteString(indent)
			out.WriteString("@jit(cache=true)\n")
		}
		out.WriteString(text)
		out.WriteByte('\n')
	}

	out.WriteString(driverSource(entry))
	annotatedSrc := out.String()

	// The annotated source must still parse and must now expose the
	// Fireworks entry points.
	check, err := lang.Parse(annotatedSrc)
	if err != nil {
		return nil, fmt.Errorf("annotate: generated source does not parse: %w", err)
	}
	for _, required := range []string{"__fireworks_jit", "__fireworks_snapshot", "__fireworks_continue", "__fireworks_main", entry} {
		if check.Function(required) == nil {
			return nil, fmt.Errorf("annotate: generated source lacks %q", required)
		}
	}
	for _, fn := range check.Functions() {
		if !strings.HasPrefix(fn.Name, "__fireworks_") && !fn.HasAnnotation("jit") {
			return nil, fmt.Errorf("annotate: function %q missed its @jit annotation", fn.Name)
		}
	}
	return &Result{Source: annotatedSrc}, nil
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
