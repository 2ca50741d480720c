package vm_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/runtime"
)

var updateDigest = flag.Bool("update-digest", false, "rewrite testdata/engine.digest from the current engine")

// digestEntries is every fuzzSeeds entry followed by the committed
// FuzzTiers and FuzzStepLimit corpora, as (name, source, params).
func digestEntries(t *testing.T) [][3]string {
	var entries [][3]string
	for i, s := range fuzzSeeds() {
		entries = append(entries, [3]string{fmt.Sprintf("seed-%02d", i), s[0], s[1]})
	}
	for _, target := range []string{"FuzzTiers", "FuzzStepLimit"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var args []string
			for _, line := range strings.Split(string(data), "\n")[1:] {
				if s, ok := strings.CutPrefix(line, "string("); ok {
					arg, err := strconv.Unquote(strings.TrimSuffix(s, ")"))
					if err != nil {
						t.Fatalf("%s: %v", file, err)
					}
					args = append(args, arg)
				}
			}
			if len(args) != 2 {
				t.Fatalf("%s: %d string arguments, want 2", file, len(args))
			}
			entries = append(entries, [3]string{target + "/" + filepath.Base(file), args[0], args[1]})
		}
	}
	return entries
}

// hash64 shortens a long output to a stable fingerprint.
func hash64(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestEngineDigest pins what the guest engine computes and charges for
// every digest entry, in each tier mode, unlimited and under the step
// limits FuzzStepLimit derives: the result, stdout, error text, the op
// counts per (tier, category) and Steps(). testdata/engine.digest was
// recorded from the closure-threaded engine that preceded the register
// form; any engine must reproduce it line for line.
func TestEngineDigest(t *testing.T) {
	var sb strings.Builder
	for _, e := range digestEntries(t) {
		name, src, paramsJSON := e[0], e[1], e[2]
		decode := func() lang.Value { // a fresh copy per run, which may mutate it
			v, err := runtime.DecodeJSON([]byte(paramsJSON))
			if err != nil {
				t.Fatalf("%s: params: %v", name, err)
			}
			return v
		}
		for _, mode := range []tierMode{modeInterp, modeJIT, modeDeopted} {
			out, ok := runTiered(src, decode(), mode, fuzzMaxSteps)
			limits := []int64{fuzzMaxSteps}
			if T := out.counts.total(); ok && T >= 2 {
				// T-1, FuzzStepLimit's derived limit, and seven more
				// spread from it across the run.
				h := fnv.New64a()
				h.Write([]byte(src + paramsJSON))
				limits = append(limits, T-1)
				for j := uint64(0); j < 8; j++ {
					limits = append(limits, 1+int64((h.Sum64()+j*uint64(T-1)/8)%uint64(T-1)))
				}
			}
			for i, limit := range limits {
				if i > 0 {
					out, _ = runTiered(src, decode(), mode, limit)
				}
				errText := ""
				if out.err != nil {
					errText = out.err.Error()
				}
				fmt.Fprintf(&sb, "%s mode=%d limit=%d result=%s/%s stdout=%s err=%q counts=%v steps=%d\n",
					name, mode, limit, lang.TypeOf(out.result), hash64(lang.Format(out.result)), hash64(out.stdout),
					errText, out.counts, out.steps)
			}
		}
	}
	path := filepath.Join("testdata", "engine.digest")
	if *updateDigest {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("digest line %d:\n got %s\nwant %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("digest has %d lines, want %d", len(g), len(w))
	}
}
