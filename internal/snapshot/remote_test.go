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
	r.UploadTraced("fn", snap, up, nil)
	if up.Now() == 0 {
		t.Fatal("upload free of charge")
	}

	down := vclock.New()
	got, err := r.FetchTraced("fn", nil, down, nil)
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
	r.UploadTraced("small", makeSnap(t, hv, 10<<20), vclock.New(), nil)
	r.UploadTraced("big", makeSnap(t, hv, 200<<20), vclock.New(), nil)
	cs, cb := vclock.New(), vclock.New()
	if _, err := r.FetchTraced("small", nil, cs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FetchTraced("big", nil, cb, nil); err != nil {
		t.Fatal(err)
	}
	if cb.Now() <= cs.Now() {
		t.Fatalf("big fetch %v not slower than small %v", cb.Now(), cs.Now())
	}
}

func TestRemoteMissAndDelete(t *testing.T) {
	r := NewRemote()
	if _, err := r.FetchTraced("ghost", nil, vclock.New(), nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	hv := newHV()
	r.UploadTraced("fn", makeSnap(t, hv, 1<<20), vclock.New(), nil)
	r.Delete("fn")
	if _, err := r.FetchTraced("fn", nil, vclock.New(), nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete ineffective: %v", err)
	}
	r.Delete("fn") // idempotent
}
