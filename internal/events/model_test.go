package events

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// The reference model: the journal as a plain slice in append order,
// every answer re-derived by a full scan. It is slow and obviously
// right, which is its whole job. It learns what was appended as the
// journal's observer, and models eviction and drops on its own.
type refJournal struct {
	t       *testing.T
	cap     int
	evs     []Event
	seq     uint64
	dropped uint64
	guard   func(TraceID) bool
	first   map[TraceID]uint64 // Seq of each trace's first event
}

func (r *refJournal) ObserveEvent(e Event) {
	r.seq++
	if e.Seq != r.seq {
		r.t.Fatalf("append got Seq %d, want %d", e.Seq, r.seq)
	}
	if e.Trace != 0 && r.first[e.Trace] == 0 {
		r.first[e.Trace] = e.Seq
	}
	if len(r.evs) == r.cap {
		victim := 0
		if r.guard != nil {
			for k, old := range r.evs {
				if old.Trace == 0 || !r.guard(old.Trace) {
					victim = k
					break
				}
			}
		}
		r.evs = append(r.evs[:victim:victim], r.evs[victim+1:]...)
		r.dropped++
	}
	r.evs = append(r.evs, e)
}

// trace is Trace(id): trace 0 means "no trace" and names nothing, though
// traceless events carry it.
func (r *refJournal) trace(id TraceID) []Event {
	return r.filter(func(e Event) bool { return id != 0 && e.Trace == id })
}

func (r *refJournal) dropTrace(id TraceID) (removed int, bytes int64) {
	var kept []Event
	for _, e := range r.evs {
		if id != 0 && e.Trace == id {
			removed++
			bytes += int64(EncodedSize(e))
			continue
		}
		kept = append(kept, e)
	}
	r.evs = kept
	return removed, bytes
}

func (r *refJournal) filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range r.evs {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// sameEvents compares two event lists, treating nil and empty alike.
func sameEvents(a, b []Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestAgainstSliceModel drives the ring and the reference through the
// same seeded random operations — interleaved scopes on several nodes,
// traceless instants, sampler drops with every kind of since, guard
// changes, at capacities small enough that the ring wraps many times —
// and compares every observable after every step.
func TestAgainstSliceModel(t *testing.T) {
	nodes := []string{"", "node-00", "node-01", "node-02", "node-03"}
	seeds := int64(24)
	if testing.Short() {
		seeds = 8 // one per capacity: DeepEqual is slow under -race
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{1, 2, 3, 5, 8, 13, 40, 97}[seed%8]
		j := NewJournal(capacity)
		ref := &refJournal{t: t, cap: capacity, first: map[TraceID]uint64{}}
		j.SetObserver(ref)

		var open []*Scope
		var traces []TraceID
		var refs []Ref
		anyTrace := func() TraceID {
			if len(traces) == 0 || rng.Intn(8) == 0 {
				return []TraceID{0, 1 << 40}[rng.Intn(2)] // no trace, and one never allocated
			}
			if rng.Intn(2) == 0 { // a recent one: likely still resident
				return traces[len(traces)-1-rng.Intn(min(len(traces), 4))]
			}
			return traces[rng.Intn(len(traces))]
		}
		dropsThatRemoved := 0
		for step := 0; step < 500; step++ {
			ts := time.Duration(step) * time.Microsecond
			what := ""
			switch op := rng.Intn(10); {
			case op < 5: // a few events on a new or a still-open scope
				var sc *Scope
				if len(open) == 0 || rng.Intn(3) == 0 {
					sc = j.NewScope("gateway", "request", ts, A("step", fmt.Sprint(step)))
					traces = append(traces, sc.TraceID())
					open = append(open, sc)
				} else {
					sc = open[rng.Intn(len(open))]
				}
				sc.SetNode(nodes[rng.Intn(len(nodes))])
				sc.SetVM(fmt.Sprintf("vm-%d", rng.Intn(3)))
				what = fmt.Sprintf("scope %d", sc.TraceID())
				for n := rng.Intn(4); n >= 0; n-- {
					switch rng.Intn(4) {
					case 0:
						sc.Begin("core", "stage", ts)
					case 1:
						sc.End(ts, A("ok", "1"))
					case 2:
						refs = append(refs, sc.Instant("msgbus", "produce", ts))
					case 3:
						link := Ref{}
						if len(refs) > 0 {
							link = refs[rng.Intn(len(refs))]
						}
						sc.InstantLinked("msgbus", "consume", ts, link, A("error", "boom"))
					}
				}
				if rng.Intn(3) == 0 {
					sc.Close(ts)
					for i, o := range open {
						if o == sc {
							open = append(open[:i], open[i+1:]...)
							break
						}
					}
				}
			case op < 6:
				what = "traceless instant"
				if len(refs) > 0 && rng.Intn(2) == 0 {
					j.InstantLinked("slo", "alert", ts, refs[rng.Intn(len(refs))])
				} else {
					refs = append(refs, j.Instant("cluster", "rebalance", ts))
				}
			case op < 9:
				id := anyTrace()
				var since uint64
				switch first := ref.first[id]; rng.Intn(3) {
				case 0:
					since = first // 0 for a trace that never appended
				case 1:
					since = uint64(rng.Int63n(int64(first) + 1)) // anywhere up to it
				}
				what = fmt.Sprintf("DropTrace(%d, %d)", id, since)
				removed, bytes := j.DropTrace(id, since)
				wantRemoved, wantBytes := ref.dropTrace(id)
				if removed != wantRemoved || bytes != wantBytes {
					t.Fatalf("seed %d step %d: %s = (%d, %d), model (%d, %d)",
						seed, step, what, removed, bytes, wantRemoved, wantBytes)
				}
				if removed > 0 {
					dropsThatRemoved++
				}
			default:
				switch rng.Intn(3) {
				case 0:
					what, ref.guard = "guard off", nil
				case 1:
					what, ref.guard = "guard all", func(TraceID) bool { return true }
				case 2:
					mod, rem := TraceID(2+rng.Intn(3)), TraceID(rng.Intn(2))
					what, ref.guard = "guard some", func(id TraceID) bool { return id%mod == rem }
				}
				j.SetEvictionGuard(ref.guard)
			}

			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d cap %d step %d after %s: %s", seed, capacity, step, what, fmt.Sprintf(format, args...))
			}
			if got := j.Events(); !sameEvents(got, ref.evs) {
				fail("Events() = %d events %v, model %d events %v", len(got), seqs(got), len(ref.evs), seqs(ref.evs))
			}
			if j.Len() != len(ref.evs) || j.Dropped() != ref.dropped {
				fail("Len %d Dropped %d, model %d and %d", j.Len(), j.Dropped(), len(ref.evs), ref.dropped)
			}
			id := anyTrace()
			if got, want := j.Trace(id), ref.trace(id); !sameEvents(got, want) {
				fail("Trace(%d) = %v, model %v", id, seqs(got), seqs(want))
			}
			n := rng.Intn(capacity+3) - 1
			want := ref.evs
			if n > 0 && n < len(want) {
				want = want[len(want)-n:]
			}
			if got := j.Tail(n); !sameEvents(got, want) {
				fail("Tail(%d) = %v, model %v", n, seqs(got), seqs(want))
			}
			cursor := uint64(rng.Int63n(int64(ref.seq) + 3))
			if got, want := j.Since(cursor), ref.filter(func(e Event) bool { return e.Seq > cursor }); !sameEvents(got, want) {
				fail("Since(%d) = %v, model %v", cursor, seqs(got), seqs(want))
			}
			match := func(e *Event) bool { return e.Trace == id && e.Kind != KindBegin }
			if rng.Intn(2) == 0 {
				match = func(e *Event) bool { return len(e.Attrs) > 0 && e.Attrs[0].Key == "error" }
			}
			var wantNewest Event
			wantFound := false
			for _, e := range ref.evs {
				if match(&e) {
					wantNewest, wantFound = e, true
				}
			}
			if got, found := j.Newest(match); found != wantFound || !reflect.DeepEqual(got, wantNewest) {
				fail("Newest = seq %d (%v), model seq %d (%v)", got.Seq, found, wantNewest.Seq, wantFound)
			}
		}
		if ref.seq < 5*uint64(capacity) || ref.dropped == 0 || dropsThatRemoved == 0 {
			t.Fatalf("seed %d cap %d: weak scenario: %d appends, %d evictions, %d drops that removed events",
				seed, capacity, ref.seq, ref.dropped, dropsThatRemoved)
		}
	}
}

func seqs(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

// TestConcurrentReadsSeeSeqOrder runs appenders, sampler-style droppers
// and readers against one small ring at once. Every read must come back
// in strictly increasing Seq — the order the ring promises by
// construction, which only holds if Seq is assigned under the lock that
// places the event — and a finished trace that was dropped must be gone.
func TestConcurrentReadsSeeSeqOrder(t *testing.T) {
	j := NewJournal(128)
	j.SetEvictionGuard(func(id TraceID) bool { return id%4 == 0 })
	const appenders, perAppender = 4, 400

	increasing := func(what string, evs []Event, after uint64) {
		for _, e := range evs {
			if e.Seq <= after {
				t.Errorf("%s: Seq %d follows %d", what, e.Seq, after)
				return
			}
			after = e.Seq
		}
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				all := j.Events()
				increasing("Events", all, 0)
				increasing("Tail", j.Tail(1+i%50), 0)
				if len(all) > 0 {
					mid := all[len(all)/2]
					increasing("Since", j.Since(mid.Seq), mid.Seq)
					increasing("Trace", j.Trace(mid.Trace), 0)
				}
				j.Newest(func(e *Event) bool { return e.Kind == KindEnd })
			}
		}(r)
	}

	finished := make(chan TraceID, appenders) // a dropper is always draining it
	var droppers sync.WaitGroup
	for d := 0; d < 2; d++ {
		droppers.Add(1)
		go func(d int) {
			defer droppers.Done()
			for id := range finished {
				var since uint64
				if resident := j.Trace(id); d == 0 && len(resident) > 0 {
					since = resident[0].Seq
				}
				j.DropTrace(id, since)
				if left := j.Trace(id); len(left) != 0 {
					t.Errorf("trace %d still has %d events after DropTrace(since=%d)", id, len(left), since)
				}
			}
		}(d)
	}

	var writers sync.WaitGroup
	for a := 0; a < appenders; a++ {
		writers.Add(1)
		go func(a int) {
			defer writers.Done()
			node := fmt.Sprintf("node-%02d", a)
			for i := 0; i < perAppender; i++ {
				sc := j.NewScope("core", "invoke", time.Duration(i))
				sc.SetNode(node)
				sc.Begin("vmm", "restore", time.Duration(i))
				sc.Instant("mem", "cow-fault", time.Duration(i))
				sc.Close(time.Duration(i + 1))
				if i%2 == 0 {
					finished <- sc.TraceID()
				}
			}
		}(a)
	}
	writers.Wait()
	close(finished)
	droppers.Wait()
	close(done)
	readers.Wait()
	increasing("final Events", j.Events(), 0)
	if j.Dropped() == 0 {
		t.Error("weak scenario: the ring never overflowed")
	}
}
