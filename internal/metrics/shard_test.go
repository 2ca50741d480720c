package metrics

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestShardedNoLostUpdates hammers counters, gauges, and histograms
// from many goroutines — through the name-resolution path, so creates
// and the copy-on-write read index are both exercised — while
// another goroutine keeps exporting snapshots. Every update must land.
// Run under -race this also proves the lookup fast path is clean.
func TestShardedNoLostUpdates(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 8
		names      = 16
		perG       = 2000
	)
	counterNames := make([]string, names)
	for i := range counterNames {
		counterNames[i] = Name("test_ops_total", "node", fmt.Sprintf("n%02d", i))
	}

	stop := make(chan struct{})
	var exporterDone sync.WaitGroup
	exporterDone.Add(1)
	go func() {
		defer exporterDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := reg.Snapshot()
				var buf bytes.Buffer
				if err := snap.WriteText(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := counterNames[(g+i)%names]
				reg.Counter(name).Inc()
				reg.Gauge(name).Add(1)
				reg.Histogram(name).ObserveDuration(time.Duration(i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	exporterDone.Wait()

	var totalC, totalG int64
	var totalH uint64
	for _, name := range counterNames {
		totalC += reg.Counter(name).Value()
		totalG += reg.Gauge(name).Value()
		totalH += reg.Histogram(name).Count()
	}
	want := int64(goroutines * perG)
	if totalC != want {
		t.Errorf("counter updates lost: %d, want %d", totalC, want)
	}
	if totalG != want {
		t.Errorf("gauge updates lost: %d, want %d", totalG, want)
	}
	if totalH != uint64(want) {
		t.Errorf("histogram observations lost: %d, want %d", totalH, want)
	}
}

// TestShardedConcurrentCreates races many goroutines creating the SAME
// instruments; every goroutine must get the same pointer back and the
// export must list each name exactly once.
func TestShardedConcurrentCreates(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	ptrs := make([]*Counter, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := reg.Counter(fmt.Sprintf("race_counter_%02d", i))
				if i == 0 {
					ptrs[g] = c
				}
				c.Inc()
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if ptrs[g] != ptrs[0] {
			t.Fatalf("goroutine %d got a different *Counter for the same name", g)
		}
	}
	snap := reg.Snapshot()
	seen := map[string]int{}
	for _, c := range snap.Counters {
		seen[c.Name]++
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("counter %s exported %d times", name, n)
		}
	}
	if got := reg.Counter("race_counter_00").Value(); got != goroutines {
		t.Errorf("race_counter_00 = %d, want %d", got, goroutines)
	}
}
