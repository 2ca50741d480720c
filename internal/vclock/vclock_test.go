package vclock

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestAdvance(t *testing.T) {
	c := New()
	if got := c.Advance(3 * time.Millisecond); got != 3*time.Millisecond {
		t.Fatalf("Advance = %v", got)
	}
	c.Advance(2 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v, want 5ms", c.Now())
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative advance")
		}
	}()
	New().Advance(-1)
}

func TestWaitUntilNeverRewinds(t *testing.T) {
	c := NewAt(10 * time.Millisecond)
	c.WaitUntil("wait", 5*time.Millisecond)
	if c.Now() != 10*time.Millisecond || len(c.Ledger()) != 0 {
		t.Fatalf("clock rewound to %v, ledger %v", c.Now(), c.Ledger())
	}
	c.SetPhase(Exec)
	c.WaitUntil("wait", 25*time.Millisecond)
	if c.Now() != 25*time.Millisecond {
		t.Fatalf("WaitUntil landed at %v", c.Now())
	}
	if got := c.Ledger(); len(got) != 1 || got[0] != (Entry{Unphased, "wait", 15 * time.Millisecond}) || c.Total() != 0 {
		t.Fatalf("ledger %v, total %v: a wait is unphased", got, c.Total())
	}
}

func TestZeroClockLedgerEmpty(t *testing.T) {
	var c Clock
	if c.Total() != 0 || c.Startup() != 0 || len(c.Ledger()) != 0 {
		t.Fatal("zero clock has a ledger")
	}
	c.Charge("boot", time.Millisecond)
	if c.Total() != 0 || c.phaseTotal(Unphased) != time.Millisecond {
		t.Fatalf("a charge outside every scope is unphased: total %v", c.Total())
	}
}

func TestChargeCoalescesByPhaseAndLabel(t *testing.T) {
	c := New()
	prev := c.SetPhase(Startup)
	c.Charge("boot", 10*time.Millisecond)
	c.Charge("load", 5*time.Millisecond)
	c.ChargeIn(Others, "net", 2*time.Millisecond)
	c.Charge("boot", time.Millisecond)
	c.SetPhase(prev)
	c.Charge("boot", 3*time.Millisecond)
	// Past the inline entries, pairs spill and still coalesce.
	for i := 0; i < 2*inlineEntries; i++ {
		c.ChargeIn(Exec, fmt.Sprint("op", i%(inlineEntries+3)), time.Microsecond)
	}
	if c.Startup() != 16*time.Millisecond || c.Others() != 2*time.Millisecond {
		t.Fatalf("Startup = %v, Others = %v", c.Startup(), c.Others())
	}
	if c.Total() != 18*time.Millisecond+2*inlineEntries*time.Microsecond {
		t.Fatalf("Total = %v", c.Total())
	}
	ledger := c.Ledger()
	want := []Entry{{Startup, "boot", 11 * time.Millisecond}, {Startup, "load", 5 * time.Millisecond},
		{Others, "net", 2 * time.Millisecond}, {Unphased, "boot", 3 * time.Millisecond}}
	if len(ledger) != len(want)+inlineEntries+3 {
		t.Fatalf("ledger has %d entries", len(ledger))
	}
	var sum time.Duration
	for i, e := range ledger {
		if i < len(want) && e != want[i] {
			t.Errorf("entry %d = %v, want %v", i, e, want[i])
		}
		sum += e.Total
	}
	if sum != c.Now() {
		t.Fatalf("ledger sums to %v, clock reads %v", sum, c.Now())
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative charge")
		}
	}()
	New().Charge("bad", -time.Millisecond)
}

func TestSinceAndSpan(t *testing.T) {
	c := New()
	mark := c.Now()
	c.Advance(7 * time.Millisecond)
	if c.Since(mark) != 7*time.Millisecond {
		t.Fatalf("Since = %v", c.Since(mark))
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 20_000*time.Nanosecond {
		t.Fatalf("Now = %v, want 20000ns (lost updates)", c.Now())
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed sequences diverge")
		}
	}
	cDiff := NewRand(43)
	same := 0
	a2 := NewRand(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == cDiff.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(99)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(5)
	base := time.Millisecond
	for i := 0; i < 1000; i++ {
		d := r.Jitter(base, 0.1)
		if d < 900*time.Microsecond || d > 1100*time.Microsecond {
			t.Fatalf("Jitter out of 10%% band: %v", d)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero-fraction jitter changed the duration")
	}
}
