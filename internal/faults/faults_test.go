package faults

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

// schedule replays n draws at a site and records which operations
// faulted with what.
func schedule(p *Plane, site string, n int, clock *vclock.Clock) []string {
	var out []string
	for i := 0; i < n; i++ {
		err := p.InjectTraced(site, clock, nil, 0)
		switch {
		case err == nil:
			out = append(out, "ok")
		default:
			var f *Fault
			if !errors.As(err, &f) {
				out = append(out, "?")
				continue
			}
			out = append(out, string(f.Kind))
		}
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	prof := Profile{ErrorRate: 0.05, LatencyRate: 0.05, CorruptionRate: 0.05, CrashRate: 0.05}
	a, b := NewPlane(42), NewPlane(42)
	a.SetProfile(SiteVMMRestore, prof)
	b.SetProfile(SiteVMMRestore, prof)
	sa := schedule(a, SiteVMMRestore, 500, vclock.New())
	sb := schedule(b, SiteVMMRestore, 500, vclock.New())
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("draw %d diverged: %s vs %s", i, sa[i], sb[i])
		}
	}
	faulted := 0
	for _, s := range sa {
		if s != "ok" {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("0 faults at a 20% combined rate over 500 draws")
	}
	// A different seed must produce a different schedule.
	c := NewPlane(43)
	c.SetProfile(SiteVMMRestore, prof)
	sc := schedule(c, SiteVMMRestore, 500, vclock.New())
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestLatencyFaultChargesClock(t *testing.T) {
	p := NewPlane(1)
	p.SetProfile(SiteRemoteFetch, Profile{LatencyRate: 1})
	clock := vclock.New()
	if err := p.InjectTraced(SiteRemoteFetch, clock, nil, 0); err != nil {
		t.Fatalf("latency fault returned error %v", err)
	}
	if clock.Now() != 1500*time.Millisecond {
		t.Fatalf("clock = %v, want the 1.5 s spike", clock.Now())
	}
	// A nil clock is counted but uncharged, never a panic.
	if err := p.InjectTraced(SiteRemoteFetch, nil, nil, 0); err != nil {
		t.Fatalf("nil-clock latency fault returned %v", err)
	}
}

func TestErrInjectedMatchesThroughWrapping(t *testing.T) {
	p := NewPlane(1)
	p.SetProfile(SiteBusProduce, Profile{ErrorRate: 1})
	err := p.InjectTraced(SiteBusProduce, nil, nil, 0)
	if err == nil {
		t.Fatal("rate-1 profile injected nothing")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(ErrInjected) = false for %v", err)
	}
}

func TestUnprofiledSiteDoesNotDraw(t *testing.T) {
	// Two planes, same seed; one takes 100 draws at an *unprofiled*
	// site in between. If unprofiled sites consumed PRNG state the
	// profiled schedules would diverge.
	prof := Profile{ErrorRate: 0.2}
	a, b := NewPlane(7), NewPlane(7)
	a.SetProfile(SiteVMMBoot, prof)
	b.SetProfile(SiteVMMBoot, prof)
	for i := 0; i < 100; i++ {
		if err := a.InjectTraced(SiteNetTransfer, nil, nil, 0); err != nil {
			t.Fatalf("unprofiled site injected %v", err)
		}
	}
	sa := schedule(a, SiteVMMBoot, 100, nil)
	sb := schedule(b, SiteVMMBoot, 100, nil)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("draw %d diverged after unprofiled-site traffic", i)
		}
	}
}

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	if err := p.InjectTraced(SiteVMMRestore, vclock.New(), nil, 0); err != nil {
		t.Fatal(err)
	}
	p.SetProfile(SiteVMMBoot, Profile{ErrorRate: 1})
	p.Enqueue(SiteVMMBoot, KindError)
	p.Instrument(metrics.NewRegistry())
}

func TestEnqueueForcesFaults(t *testing.T) {
	p := NewPlane(1) // no profile on the site: only the script fires
	p.Enqueue(SiteVMMRestore, KindError, KindCorruption)
	err1 := p.InjectTraced(SiteVMMRestore, nil, nil, 0)
	err2 := p.InjectTraced(SiteVMMRestore, nil, nil, 0)
	err3 := p.InjectTraced(SiteVMMRestore, nil, nil, 0)
	var f1, f2 *Fault
	if !errors.As(err1, &f1) || f1.Kind != KindError {
		t.Fatalf("first scripted fault = %v", err1)
	}
	if !errors.As(err2, &f2) || f2.Kind != KindCorruption {
		t.Fatalf("second scripted fault = %v", err2)
	}
	if err3 != nil {
		t.Fatalf("drained script still injected %v", err3)
	}
}

func TestInjectionMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPlane(1)
	p.Instrument(reg)
	p.Enqueue(SiteVMMRestore, KindError, KindError, KindLatency)
	for i := 0; i < 3; i++ {
		_ = p.InjectTraced(SiteVMMRestore, vclock.New(), nil, 0)
	}
	if got := reg.Counter(metrics.Name("faults_injected_total", "site", SiteVMMRestore, "kind", "error")).Value(); got != 2 {
		t.Fatalf("error count = %d, want 2", got)
	}
	if got := reg.Counter(metrics.Name("faults_injected_total", "site", SiteVMMRestore, "kind", "latency")).Value(); got != 1 {
		t.Fatalf("latency count = %d, want 1", got)
	}
}

func TestProfileRateOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rates summing past 1")
		}
	}()
	NewPlane(1).SetProfile(SiteVMMBoot, Profile{ErrorRate: 0.7, CrashRate: 0.7})
}

func TestDefaultPlanCoversEverySite(t *testing.T) {
	p := DefaultPlan(9, 0.5)
	for _, site := range []string{
		SiteVMMBoot, SiteVMMRestore, SiteRemoteFetch,
		SiteBusProduce, SiteBusConsume, SiteNetTransfer, SiteClusterNode,
	} {
		p.mu.Lock()
		prof, ok := p.profiles[site]
		p.mu.Unlock()
		if !ok || prof.total() == 0 {
			t.Errorf("site %s unprofiled in DefaultPlan", site)
		}
	}
}
