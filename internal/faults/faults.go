// Package faults is the deterministic fault-injection plane of the
// simulated stack, plus the resilience primitives (retry with backoff,
// per-attempt deadlines) the platforms use to survive it.
//
// The paper's evaluation assumes restores, queue fetches, and remote
// snapshot transfers always succeed; a production control plane lives
// or dies by how it degrades when they don't. The plane gives every
// fragile hot path a named injection site; per-site fault profiles
// (error, latency spike, corruption, node crash) are driven by one
// SplitMix64-seeded PRNG, so for a deterministic operation sequence the
// same seed reproduces the exact same fault schedule — and therefore
// the exact same metrics dump. Like virtual time, injected failure is a
// pure function of the workload and the seed.
//
// Determinism caveat: the plane draws from its PRNG in operation order.
// Sequential workloads (the seeded storm test, fwbench) are exactly
// reproducible; concurrent invocations interleave draws in goroutine
// schedule order, so under concurrency the fault *rate* holds but the
// per-operation schedule does not.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Injection sites. Each names one fragile operation in the stack; a
// component checks its site via Plane.InjectTraced at the top of the
// operation.
const (
	// SiteVMMBoot is a guest kernel boot (the install / cold path).
	SiteVMMBoot = "vmm.boot"
	// SiteVMMRestore is a snapshot restore into a fresh microVM — the
	// paper's headline hot path and, per the Firecracker studies, the
	// fragile one.
	SiteVMMRestore = "vmm.restore"
	// SiteRemoteFetch is a snapshot image transfer from remote storage.
	SiteRemoteFetch = "snapshot.remote.fetch"
	// SiteBusProduce is a parameter produce to the message bus.
	SiteBusProduce = "msgbus.produce"
	// SiteBusConsume is the resumed clone's parameter fetch.
	SiteBusConsume = "msgbus.consume"
	// SiteClusterNode is a whole-backend failure: the node picked for a
	// placement crashes before completing the invocation.
	SiteClusterNode = "cluster.node"
)

// Kind classifies what an injected fault does.
type Kind string

// Fault kinds.
const (
	// KindError fails the operation with an injected error.
	KindError Kind = "error"
	// KindLatency charges a latency spike to the operation's clock; the
	// operation itself succeeds (slowly). With a per-attempt deadline a
	// Retrier turns a spiked attempt into a timeout.
	KindLatency Kind = "latency"
	// KindCorruption fails the operation the way a checksum mismatch
	// would: the transfer "completed" but the payload is unusable.
	KindCorruption Kind = "corruption"
	// KindCrash kills the component behind the site (a cluster node);
	// the operation fails and the component needs recovery.
	KindCrash Kind = "crash"
)

// ErrInjected is the sentinel every injected fault matches via
// errors.Is — the resilience layer's test for "transient by
// construction, worth retrying".
var ErrInjected = errors.New("faults: injected")

// Fault is one injected failure. It is the error returned by the
// faulted operation (wrapped by however many layers sit above it);
// errors.Is(err, ErrInjected) survives the wrapping.
type Fault struct {
	Site string
	Kind Kind
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected %s at %s", f.Kind, f.Site)
}

// Is matches the ErrInjected sentinel.
func (f *Fault) Is(target error) bool { return target == ErrInjected }

// Profile sets the fault mix of one site. Rates are per-operation
// probabilities and are mutually exclusive: one PRNG draw per operation
// selects at most one fault, so the total must stay <= 1.
type Profile struct {
	ErrorRate      float64
	LatencyRate    float64
	CorruptionRate float64
	CrashRate      float64
}

// latencySpike is the virtual time a latency fault charges: long
// enough to blow a Retrier's per-attempt deadline, so latency faults
// exercise the timeout path rather than just shifting the tail.
const latencySpike = 1500 * time.Millisecond

func (p Profile) total() float64 {
	return p.ErrorRate + p.LatencyRate + p.CorruptionRate + p.CrashRate
}

// Plane is the central fault-injection plane of one simulated
// deployment (a host, or a whole cluster sharing one plane via
// EnvConfig). A nil *Plane is valid and injects nothing, so components
// hold and consult one unconditionally.
type Plane struct {
	mu       sync.Mutex
	rng      *vclock.Rand
	profiles map[string]Profile
	// script holds per-site queues of forced faults, consumed before
	// the profile draw — deterministic single-shot injection for tests
	// and targeted experiments.
	script map[string][]Kind

	reg *metrics.Registry
}

// NewPlane returns a plane whose fault schedule is a pure function of
// seed and the operation sequence. No sites are profiled yet; an
// unprofiled site never draws (and so never perturbs the schedule of
// profiled ones).
func NewPlane(seed uint64) *Plane {
	return &Plane{
		rng:      vclock.NewRand(seed),
		profiles: make(map[string]Profile),
		script:   make(map[string][]Kind),
	}
}

// Instrument attaches the plane to a metrics registry:
// faults_injected_total{site,kind} counts every injected fault.
func (p *Plane) Instrument(reg *metrics.Registry) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.reg = reg
	p.mu.Unlock()
}

// SetProfile installs (or replaces) a site's fault profile. A zero
// profile disarms the site without removing its draw.
func (p *Plane) SetProfile(site string, prof Profile) {
	if p == nil {
		return
	}
	if t := prof.total(); t > 1 {
		panic(fmt.Sprintf("faults: profile rates for %s sum to %v > 1", site, t))
	}
	p.mu.Lock()
	p.profiles[site] = prof
	p.mu.Unlock()
}

// Enqueue forces the next len(kinds) operations at site to fault with
// the given kinds, ahead of (and without consuming) the profile draw.
func (p *Plane) Enqueue(site string, kinds ...Kind) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.script[site] = append(p.script[site], kinds...)
	p.mu.Unlock()
}

// InjectTraced consults the plane at a site: at most one fault is
// selected per call. Latency faults charge their spike to clock (when
// non-nil) and return nil — the operation succeeds, slowly. Error,
// corruption, and crash faults return a *Fault the operation must
// propagate. Every injected fault emits a "faults" event at its site
// into sc (nil records nothing), timestamped with the clock (or with
// `at` for clockless sites like the message bus). A nil plane, or a
// site without profile or script, injects nothing.
func (p *Plane) InjectTraced(site string, clock *vclock.Clock, sc *events.Scope, at time.Duration) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	kind, ok := p.drawLocked(site)
	reg := p.reg
	p.mu.Unlock()
	if !ok {
		return nil
	}
	reg.Counter(metrics.Name("faults_injected_total", "site", site, "kind", string(kind))).Inc()
	if kind == KindLatency {
		if clock != nil {
			clock.Charge("fault-spike", latencySpike)
			at = clock.Now()
		}
		sc.Instant("faults", site, at,
			events.A("kind", string(kind)), events.A("spike", latencySpike.String()))
		return nil
	}
	if clock != nil {
		at = clock.Now()
	}
	sc.Instant("faults", site, at, events.A("kind", string(kind)))
	return &Fault{Site: site, Kind: kind}
}

// drawLocked picks the fault for one operation; caller holds p.mu.
func (p *Plane) drawLocked(site string) (Kind, bool) {
	if q := p.script[site]; len(q) > 0 {
		p.script[site] = q[1:]
		return q[0], true
	}
	prof := p.profiles[site]
	if prof.total() == 0 {
		return "", false
	}
	r := p.rng.Float64()
	switch {
	case r < prof.ErrorRate:
		return KindError, true
	case r < prof.ErrorRate+prof.LatencyRate:
		return KindLatency, true
	case r < prof.ErrorRate+prof.LatencyRate+prof.CorruptionRate:
		return KindCorruption, true
	case r < prof.total():
		return KindCrash, true
	}
	return "", false
}

// DefaultPlan builds the standard chaos configuration used by
// `fwsim -faults` and the seeded storm test: every data-path site faults
// at the given per-operation rate (split between errors, latency
// spikes, and — on transfer sites — corruption), and the cluster site
// crashes nodes at the same rate.
func DefaultPlan(seed uint64, rate float64) *Plane {
	p := NewPlane(seed)
	p.ApplyDefaultPlan(rate)
	return p
}

// ParseSeedRate parses "seed=N,rate=P" (either key optional, any
// order) over the given defaults; the rate must lie in [0,1]. Errors
// name the flag. It is the grammar of both seeded-rate flags: fwsim's
// -faults (DefaultPlan's two parameters) and -telem.
func ParseSeedRate(flag, spec string, seed uint64, rate float64) (uint64, float64, error) {
	for _, field := range strings.Split(spec, ",") {
		key, value, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return 0, 0, fmt.Errorf("%s field %q is not key=value", flag, field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("%s seed: %w", flag, err)
			}
			seed = n
		case "rate":
			r, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("%s rate: %w", flag, err)
			}
			if r < 0 || r > 1 {
				return 0, 0, fmt.Errorf("%s rate %v out of [0,1]", flag, r)
			}
			rate = r
		default:
			return 0, 0, fmt.Errorf("%s has no key %q (want seed, rate)", flag, key)
		}
	}
	return seed, rate, nil
}

// ApplyDefaultPlan arms the DefaultPlan profiles on an existing plane —
// the pattern for experiments that install functions fault-free first
// and unleash faults only on the invoke phase.
func (p *Plane) ApplyDefaultPlan(rate float64) {
	if p == nil {
		return
	}
	p.SetProfile(SiteVMMBoot, Profile{ErrorRate: rate})
	p.SetProfile(SiteVMMRestore, Profile{ErrorRate: rate * 0.6, LatencyRate: rate * 0.4})
	p.SetProfile(SiteRemoteFetch, Profile{ErrorRate: rate * 0.4, LatencyRate: rate * 0.2, CorruptionRate: rate * 0.4})
	// Bus operations have no invocation clock at the broker layer, so
	// their profile is error-only (a latency draw there would count but
	// charge nothing).
	p.SetProfile(SiteBusProduce, Profile{ErrorRate: rate})
	p.SetProfile(SiteBusConsume, Profile{ErrorRate: rate * 0.6, CorruptionRate: rate * 0.4})
	p.SetProfile(SiteClusterNode, Profile{CrashRate: rate})
}
