// Package trace records the latency breakdown of a simulated serverless
// invocation. The paper's figures decompose end-to-end latency into three
// phases — start-up, function execution, and everything else (network,
// disk, queueing) — and this package is the common currency that every
// platform implementation uses to report those phases.
//
// A Breakdown is three phase totals plus the log of charges behind
// them. It holds no spans: nested, timestamped intervals are recorded
// once, in the event journal (internal/events), through
// platform.Invocation.StartSpan/FinishSpan.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Phase identifies one component of an invocation's end-to-end latency.
type Phase string

// The three phases reported by Figures 6, 7, and 9 in the paper.
const (
	PhaseStartup Phase = "start-up" // sandbox/VM/runtime initialization, snapshot load
	PhaseExec    Phase = "exec"     // user function execution (incl. in-run JIT)
	PhaseOthers  Phase = "others"   // network, disk I/O, queueing, parameter fetch
)

// Breakdown accumulates virtual time per phase for one invocation.
// The zero value is ready to use. Breakdown is not safe for concurrent
// use; each invocation owns its own.
type Breakdown struct {
	durs    [3]time.Duration // indexed by slot: start-up, exec, others
	present [3]bool          // whether the slot was ever charged (even 0)
	events  []Event
}

// phases lists the three phases in slot order.
var phases = [3]Phase{PhaseStartup, PhaseExec, PhaseOthers}

// slot maps a phase to its fixed index. Charging or reading a phase
// other than the paper's three is an instrumentation bug and panics.
func slot(p Phase) int {
	switch p {
	case PhaseStartup:
		return 0
	case PhaseExec:
		return 1
	case PhaseOthers:
		return 2
	}
	panic(fmt.Sprintf("trace: unknown phase %q", p))
}

// Event is a single timestamped accounting entry, useful for debugging a
// simulated invocation ("what exactly did the cold start pay for?").
type Event struct {
	Phase Phase
	Label string
	Cost  time.Duration
}

// Add charges cost to the given phase with a human-readable label.
func (b *Breakdown) Add(p Phase, label string, cost time.Duration) {
	if cost < 0 {
		panic(fmt.Sprintf("trace: negative cost %v for %s/%s", cost, p, label))
	}
	i := slot(p)
	b.durs[i] += cost
	b.present[i] = true
	b.events = append(b.events, Event{Phase: p, Label: label, Cost: cost})
}

// Get returns the accumulated time for one phase.
func (b *Breakdown) Get(p Phase) time.Duration { return b.durs[slot(p)] }

// Startup, Exec, and Others are convenience accessors for the three
// standard phases.
func (b *Breakdown) Startup() time.Duration { return b.Get(PhaseStartup) }
func (b *Breakdown) Exec() time.Duration    { return b.Get(PhaseExec) }
func (b *Breakdown) Others() time.Duration  { return b.Get(PhaseOthers) }

// Total returns the end-to-end latency: the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	return b.durs[0] + b.durs[1] + b.durs[2]
}

// Events returns the accounting log in insertion order. The returned
// slice is owned by the Breakdown and must not be modified.
func (b *Breakdown) Events() []Event { return b.events }

// String renders the breakdown compactly, phases sorted by name, e.g.
// "exec=1.2ms others=300µs start-up=12ms total=13.5ms".
func (b *Breakdown) String() string {
	var sb strings.Builder
	for _, i := range [3]int{1, 2, 0} { // exec, others, start-up
		if b.present[i] {
			fmt.Fprintf(&sb, "%s=%v ", phases[i], b.durs[i])
		}
	}
	fmt.Fprintf(&sb, "total=%v", b.Total())
	return sb.String()
}
