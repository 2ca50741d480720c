package snapshot

import (
	"errors"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestRemoteUploadFetch(t *testing.T) {
	hv := newHV()
	r := NewRemote()
	snap := makeSnap(t, hv, 100<<20)

	up := vclock.New()
	r.Upload("fn", snap, up)
	if up.Now() == 0 {
		t.Fatal("upload free of charge")
	}

	down := vclock.New()
	got, err := r.Fetch("fn", nil, down)
	if err != nil {
		t.Fatal(err)
	}
	if got != snap {
		t.Fatal("wrong image")
	}
	if r.Fetches() != 1 {
		t.Fatalf("fetches = %d", r.Fetches())
	}
	// 100 MiB at ~1.25 GB/s plus base: tens of milliseconds — far
	// cheaper than a reinstall, pricier than a warm local resume.
	if down.Now() < 50*time.Millisecond || down.Now() > 200*time.Millisecond {
		t.Fatalf("fetch cost = %v", down.Now())
	}
}

func TestRemoteFetchCostScalesWithSize(t *testing.T) {
	hv := newHV()
	r := NewRemote()
	r.Upload("small", makeSnap(t, hv, 10<<20), vclock.New())
	r.Upload("big", makeSnap(t, hv, 200<<20), vclock.New())
	cs, cb := vclock.New(), vclock.New()
	if _, err := r.Fetch("small", nil, cs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fetch("big", nil, cb); err != nil {
		t.Fatal(err)
	}
	if cb.Now() <= cs.Now() {
		t.Fatalf("big fetch %v not slower than small %v", cb.Now(), cs.Now())
	}
}

func TestRemoteMissAndDelete(t *testing.T) {
	r := NewRemote()
	if _, err := r.Fetch("ghost", nil, vclock.New()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	hv := newHV()
	r.Upload("fn", makeSnap(t, hv, 1<<20), vclock.New())
	r.Delete("fn")
	if _, err := r.Fetch("fn", nil, vclock.New()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete ineffective: %v", err)
	}
	r.Delete("fn") // idempotent
}
