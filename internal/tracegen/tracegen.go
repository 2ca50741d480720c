// Package tracegen generates synthetic serverless invocation traces
// shaped like the production workload characterization the paper builds
// its motivation on (Shahrad et al., "Serverless in the Wild", USENIX
// ATC 2020 — reference [48]): function popularity is heavily skewed,
// with only ~18.6% of functions invoked more than once a minute and the
// remaining ~81.4% invoked rarely — the population for which warm pools
// waste memory without hiding cold starts (§2 of the Fireworks paper).
//
// Arrivals are Poisson per function (exponential inter-arrival times)
// from a seeded deterministic source, so a trace is a pure function of
// its Config.
package tracegen

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/vclock"
)

// Config shapes a trace.
type Config struct {
	// Functions is the number of distinct functions (default 100).
	Functions int
	// Duration is the trace length in virtual time (default 1 hour).
	Duration time.Duration
	// Seed makes the trace reproducible (default 1).
	Seed uint64
}

// The two popularity classes of the ATC'20 measurement.
const (
	// popularFraction is the share of functions in the popular class.
	popularFraction = 0.186
	// popularRatePerMin is the popular class's mean invocation rate,
	// comfortably above once a minute.
	popularRatePerMin = 2.0
	// rareMeanInterval is the rare class's mean time between
	// invocations, well below once a minute.
	rareMeanInterval = 25 * time.Minute
)

func (c *Config) applyDefaults() {
	if c.Functions == 0 {
		c.Functions = 100
	}
	if c.Duration == 0 {
		c.Duration = time.Hour
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Class labels a function's popularity class.
type Class string

// Popularity classes.
const (
	ClassPopular Class = "popular"
	ClassRare    Class = "rare"
)

// FunctionSpec describes one synthetic function in the trace.
type FunctionSpec struct {
	Name  string
	Class Class
	// MeanInterval is the mean inter-arrival time of its invocations.
	MeanInterval time.Duration
}

// Event is one invocation in the trace timeline.
type Event struct {
	At       time.Duration
	Function string
}

// Trace is a generated workload.
type Trace struct {
	Config    Config
	Functions []FunctionSpec
	Events    []Event
}

// Generate builds a deterministic trace from cfg.
func Generate(cfg Config) *Trace {
	cfg.applyDefaults()
	rng := vclock.NewRand(cfg.Seed)
	nPopular := int(math.Round(float64(cfg.Functions) * popularFraction))
	if nPopular < 1 {
		nPopular = 1
	}
	if nPopular > cfg.Functions {
		nPopular = cfg.Functions
	}

	tr := &Trace{Config: cfg}
	popularInterval := time.Duration(float64(time.Minute) / popularRatePerMin)
	for i := 0; i < cfg.Functions; i++ {
		spec := FunctionSpec{Name: fmt.Sprintf("fn-%03d", i)}
		if i < nPopular {
			spec.Class = ClassPopular
			spec.MeanInterval = popularInterval
		} else {
			spec.Class = ClassRare
			spec.MeanInterval = rareMeanInterval
		}
		tr.Functions = append(tr.Functions, spec)

		// Poisson arrivals: exponential inter-arrival times with the
		// class's mean. The first arrival is offset by one draw so
		// functions do not all fire at t=0.
		at := expDraw(rng, spec.MeanInterval)
		for at < cfg.Duration {
			tr.Events = append(tr.Events, Event{At: at, Function: spec.Name})
			at += expDraw(rng, spec.MeanInterval)
		}
	}
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].At < tr.Events[j].At })
	return tr
}

// expDraw samples an exponential inter-arrival with the given mean.
func expDraw(rng *vclock.Rand, mean time.Duration) time.Duration {
	u := rng.Float64()
	// Guard the log: Float64 returns [0,1), so 1-u is in (0,1].
	return time.Duration(-math.Log(1-u) * float64(mean))
}

// CountByFunction returns invocation counts per function.
func (t *Trace) CountByFunction() map[string]int {
	out := make(map[string]int, len(t.Functions))
	for _, e := range t.Events {
		out[e.Function]++
	}
	return out
}

// ClassOf returns the class of a function in this trace.
func (t *Trace) ClassOf(name string) Class {
	for _, f := range t.Functions {
		if f.Name == name {
			return f.Class
		}
	}
	return ""
}

// Stats summarizes a trace.
type Stats struct {
	Functions    int
	PopularFuncs int
	RareFuncs    int
	Events       int
	// CalledMoreThanOncePerMin is the fraction of functions whose
	// realized rate exceeds 1/min — the paper's 18.6% statistic.
	CalledMoreThanOncePerMin float64
}

// Summarize computes trace statistics.
func (t *Trace) Summarize() Stats {
	counts := t.CountByFunction()
	s := Stats{Functions: len(t.Functions), Events: len(t.Events)}
	minutes := t.Config.Duration.Minutes()
	frequent := 0
	for _, f := range t.Functions {
		switch f.Class {
		case ClassPopular:
			s.PopularFuncs++
		case ClassRare:
			s.RareFuncs++
		}
		if float64(counts[f.Name])/minutes > 1 {
			frequent++
		}
	}
	if s.Functions > 0 {
		s.CalledMoreThanOncePerMin = float64(frequent) / float64(s.Functions)
	}
	return s
}
