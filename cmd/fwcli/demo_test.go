package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDemo = flag.Bool("update-digest", false, "rewrite testdata/demo.digest from the current program")

const demoDigest = "testdata/demo.digest"

// demoRuns are make demo's four fwcli runs: the arguments after the
// Makefile's DEMO_FWCLI_ARGS, where an argument with a slash is a file
// the run exports, and the file the run's stdout goes to. make demo
// discards the first two runs' stdout; the digest pins it all the same.
var demoRuns = []struct {
	args   []string
	stdout string
}{
	{[]string{"-timeseries-dump", "memory-timeline/memory-timeline-fireworks.csv"}, "memory-timeline/fireworks.stdout"},
	{[]string{"-platform", "firecracker", "-mode", "cold", "-timeseries-dump", "memory-timeline/memory-timeline-firecracker.csv"}, "memory-timeline/firecracker.stdout"},
	{[]string{"-insight", "-trace-dump", "insight-report/insight-trace.json"}, "insight-report/insight-report.txt"},
	{[]string{"-telem", "seed=7,rate=0.05", "-trace-dump", "telem-report/telem-sampled.ndjson", "-insight"}, "telem-report/telem-insight.txt"},
}

// TestDemoDigest runs make demo's fwcli configurations in-process into
// a temporary directory and compares one sha256 line per exported file
// and per stdout, in sha256sum's format, with testdata/demo.digest. A
// change that means to move an export rewrites the file with
// -update-digest.
func TestDemoDigest(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	for _, r := range demoRuns {
		args := []string{"-builtin", "faas-fact-nodejs", "-repeat", "20"}
		var exports []string
		for _, a := range r.args {
			if strings.Contains(a, "/") {
				exports = append(exports, a)
				a = filepath.Join(dir, a)
			}
			args = append(args, a)
		}
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(r.stdout)), 0o755); err != nil {
			t.Fatal(err)
		}
		var stdout strings.Builder
		if err := run(args, &stdout); err != nil {
			t.Fatalf("fwcli %s: %v", strings.Join(args, " "), err)
		}
		for _, name := range exports {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%x  %s\n", sha256.Sum256(data), name)
		}
		fmt.Fprintf(&sb, "%x  %s\n", sha256.Sum256([]byte(stdout.String())), r.stdout)
	}
	got := sb.String()
	if *updateDemo {
		if err := os.WriteFile(demoDigest, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(demoDigest)
	if err != nil {
		t.Fatalf("%v (record it with -update-digest)", err)
	}
	if got != string(want) {
		t.Fatalf("demo exports moved:\n got\n%s want\n%s", got, want)
	}
}
