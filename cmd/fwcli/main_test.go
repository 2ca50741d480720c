package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestResolveFunctionBuiltin(t *testing.T) {
	fn, err := resolveFunction("", "faas-fact-python", "x", "nodejs")
	if err != nil {
		t.Fatal(err)
	}
	if fn.Name != "faas-fact-python" || fn.Lang != "python" {
		t.Fatalf("fn = %+v", fn)
	}
	if _, err := resolveFunction("", "nope", "x", "nodejs"); err == nil ||
		!strings.Contains(err.Error(), "unknown builtin") {
		t.Fatalf("err = %v", err)
	}
}

func TestResolveFunctionFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fn.fl")
	if err := os.WriteFile(path, []byte("func main(p) { return 1; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	fn, err := resolveFunction(path, "", "myfn", "python")
	if err != nil {
		t.Fatal(err)
	}
	if fn.Name != "myfn" || fn.Lang != "python" || !strings.Contains(fn.Source, "return 1") {
		t.Fatalf("fn = %+v", fn)
	}
	if _, err := resolveFunction(path, "", "x", "cobol"); err == nil {
		t.Fatal("bad language accepted")
	}
	if _, err := resolveFunction(filepath.Join(dir, "missing.fl"), "", "x", "nodejs"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := resolveFunction("", "", "x", "nodejs"); err == nil {
		t.Fatal("no source accepted")
	}
}

func TestResolvePlatform(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	for name, want := range map[string]string{
		"fireworks":               "fireworks",
		"openwhisk":               "openwhisk",
		"gvisor":                  "gvisor",
		"firecracker":             "firecracker",
		"firecracker+os-snapshot": "firecracker+os-snapshot",
	} {
		p, err := resolvePlatform(name, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.PlatformName() != want {
			t.Fatalf("%s -> %s", name, p.PlatformName())
		}
	}
	for _, bad := range []string{"lambda", "isolate"} {
		if _, err := resolvePlatform(bad, env); err == nil || err.Error() != fmt.Sprintf("unknown platform %q", bad) {
			t.Fatalf("%s: err = %v", bad, err)
		}
	}
}

func TestDumpMetrics(t *testing.T) {
	env := platform.NewEnv(platform.EnvConfig{})
	p, err := resolvePlatform("fireworks", env)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := resolveFunction("", "faas-fact-python", "x", "python")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Install(fn); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(fn.Name, platform.MustParams(nil), platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := env.Metrics.WriteFormat(&buf, "text"); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"counter vmm_snapshot_restores_total 1",
		"histogram vmm_snapshot_restore_duration count=1",
		`counter invoke_total{platform="fireworks"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q:\n%s", want, text)
		}
	}

	var jsonBuf strings.Builder
	if err := env.Metrics.WriteFormat(&jsonBuf, "json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), `"counters"`) {
		t.Error("json dump missing counters")
	}
	if err := env.Metrics.WriteFormat(&buf, "csv"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestResolveMode(t *testing.T) {
	cases := map[string]platform.StartMode{
		"auto": platform.ModeAuto, "cold": platform.ModeCold, "warm": platform.ModeWarm,
	}
	for name, want := range cases {
		got, err := resolveMode(name)
		if err != nil || got != want {
			t.Fatalf("%s -> %v, %v", name, got, err)
		}
	}
	if _, err := resolveMode("tepid"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
