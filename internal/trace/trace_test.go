package trace

import (
	"strings"
	"testing"
	"time"
)

func TestZeroValueUsable(t *testing.T) {
	var b Breakdown
	if b.Total() != 0 || b.Startup() != 0 {
		t.Fatal("zero breakdown not empty")
	}
	b.Add(PhaseExec, "run", time.Millisecond)
	if b.Exec() != time.Millisecond {
		t.Fatalf("Exec = %v", b.Exec())
	}
}

func TestAccumulation(t *testing.T) {
	var b Breakdown
	b.Add(PhaseStartup, "boot", 10*time.Millisecond)
	b.Add(PhaseStartup, "load", 5*time.Millisecond)
	b.Add(PhaseOthers, "net", 2*time.Millisecond)
	if b.Startup() != 15*time.Millisecond {
		t.Fatalf("Startup = %v", b.Startup())
	}
	if b.Total() != 17*time.Millisecond {
		t.Fatalf("Total = %v", b.Total())
	}
	if len(b.Events()) != 3 {
		t.Fatalf("events = %d", len(b.Events()))
	}
}

func TestNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative cost")
		}
	}()
	var b Breakdown
	b.Add(PhaseExec, "bad", -time.Millisecond)
}

func TestString(t *testing.T) {
	var b Breakdown
	b.Add(PhaseStartup, "boot", 12*time.Millisecond)
	b.Add(PhaseExec, "run", 3*time.Millisecond)
	s := b.String()
	for _, want := range []string{"start-up=12ms", "exec=3ms", "total=15ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
