package repro_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var updateContract = flag.Bool("update-digest", false, "rewrite testdata/contract.digest from the current program")

const contractDigest = "testdata/contract.digest"

// TestContractDigest pins the paper contract: every experiment's table
// rows, notes and shape checks, one line each, exactly as fwbench
// prints them but without its wall-time lines. A change that means to
// move a number rewrites the file with -update-digest, and the diff
// shows which rows moved.
func TestContractDigest(t *testing.T) {
	var sb strings.Builder
	for _, e := range experiments.All() {
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, tab := range res.Tables {
			for _, row := range tab.Rows {
				fmt.Fprintf(&sb, "%s %s row: %s\n", e.ID, tab.ID, strings.Join(row, " | "))
			}
			for _, n := range tab.Notes {
				fmt.Fprintf(&sb, "%s %s note: %s\n", e.ID, tab.ID, n)
			}
		}
		for _, c := range res.Checks {
			fmt.Fprintf(&sb, "%s check: %s | paper %s | measured %s | pass %t\n", e.ID, c.Name, c.Expected, c.Measured, c.Pass)
		}
	}
	got := sb.String()
	if *updateContract {
		if err := os.MkdirAll(filepath.Dir(contractDigest), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(contractDigest, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(contractDigest)
	if err != nil {
		t.Fatalf("%v (record it with -update-digest)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", contractDigest, i+1, g, w)
		}
	}
}
