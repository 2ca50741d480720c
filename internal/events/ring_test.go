package events

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAppendsFromManyNodes hammers one journal from many
// node-homed goroutines while readers keep calling Events(), then
// checks nothing was lost: every append is present exactly once and
// sequence numbers are unique. Under -race this pins down the append
// path and the atomic ID allocators.
func TestConcurrentAppendsFromManyNodes(t *testing.T) {
	j := NewJournal(DefaultCapacity) // holds all 12,000 events: nothing may evict
	const (
		goroutines = 8
		perG       = 500
	)

	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				evs := j.Events()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Error("Events() not seq-sorted")
						return
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := fmt.Sprintf("node-%02d", g)
			for i := 0; i < perG; i++ {
				sc := j.NewScope("core", "invoke", time.Duration(i))
				sc.SetNode(node)
				sc.Instant("vmm", "restore", time.Duration(i))
				sc.Close(time.Duration(i + 1))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerDone.Wait()

	// Each iteration appends 3 events: begin, instant, end.
	want := goroutines * perG * 3
	evs := j.Events()
	if len(evs) != want {
		t.Fatalf("journal has %d events, want %d", len(evs), want)
	}
	if j.Len() != want {
		t.Errorf("Len() = %d, want %d", j.Len(), want)
	}
	if j.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0", j.Dropped())
	}
	seqs := make(map[uint64]bool, len(evs))
	for _, e := range evs {
		if seqs[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seqs[e.Seq] = true
	}
	// Per-goroutine trace IDs must be unique too.
	traces := map[TraceID]int{}
	for _, e := range evs {
		if e.Kind == KindBegin && e.Component == "core" {
			traces[e.Trace]++
		}
	}
	if len(traces) != goroutines*perG {
		t.Errorf("%d distinct traces, want %d", len(traces), goroutines*perG)
	}
}

// seedJournal replays a fixed multi-node workload single-threaded —
// the deterministic-simulation shape whose exports must be
// byte-stable.
func seedJournal(j *Journal) {
	ts := time.Duration(0)
	for i := 0; i < 200; i++ {
		node := fmt.Sprintf("node-%02d", i%5)
		sc := j.NewScope("core", "invoke", ts, A("fn", fmt.Sprintf("f%d", i%3)))
		sc.SetNode(node)
		sc.SetVM(fmt.Sprintf("vm-%d", i%4))
		sc.Begin("vmm", "restore", ts+time.Microsecond)
		sc.Instant("mem", "cow-fault", ts+2*time.Microsecond)
		sc.End(ts + 3*time.Microsecond)
		sc.Close(ts + 5*time.Microsecond)
		ts += 10 * time.Microsecond
	}
	// Host-level (nodeless) instants interleave with node events.
	j.Instant("cluster", "rebalance", ts)
}

// TestGoldenExport pins the exports of a fixed single-threaded
// workload byte for byte. The digests were taken at the last commit
// that striped the journal per node (where the 1-stripe and 16-stripe
// layouts agreed on them), so they also pin that moving to one ring
// changed no export.
func TestGoldenExport(t *testing.T) {
	j := NewJournal(DefaultCapacity)
	seedJournal(j)
	for format, want := range map[string]string{
		"ndjson": "07d14f4b7f691df131454d575600c83297578eee622e48f9c07da249bed880e7",
		"chrome": "4b5e985e893fd36001fbcd98f7245dc08285689bb274787e149e93f9982f2c31",
	} {
		var buf bytes.Buffer
		if err := WriteFormat(&buf, j.Events(), format); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s export (%d bytes) has sha256 %s, want %s", format, buf.Len(), got, want)
		}
	}
}
