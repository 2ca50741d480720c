package msgbus

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/metrics"
)

func batchOf(n int, key string) []BatchRecord {
	recs := make([]BatchRecord, n)
	for i := range recs {
		recs[i] = BatchRecord{Key: key, Value: []byte(fmt.Sprintf("v%03d", i))}
	}
	return recs
}

// TestProduceBatchFIFO checks the batched path preserves the
// per-partition FIFO contract: offsets are contiguous in batch order
// and a batched consume returns the records in that order.
func TestProduceBatchFIFO(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("jobs", 1); err != nil {
		t.Fatal(err)
	}
	offsets, err := b.ProduceBatchTracedAt("jobs", batchOf(10, "k"), time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range offsets {
		if off != int64(i) {
			t.Fatalf("offsets not contiguous from 0: %v", offsets)
		}
	}
	msgs, err := b.ConsumeFrom("jobs", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 10 {
		t.Fatalf("consumed %d messages, want 10", len(msgs))
	}
	for i, m := range msgs {
		if want := fmt.Sprintf("v%03d", i); !bytes.Equal(m.Value, []byte(want)) {
			t.Errorf("message %d = %q, want %q", i, m.Value, want)
		}
		if m.Offset != int64(i) {
			t.Errorf("message %d has offset %d", i, m.Offset)
		}
	}
}

// TestProduceBatchMultiPartition routes a mixed-key batch across
// partitions and checks each partition sees its records contiguously,
// in batch order, with offsets reported per record.
func TestProduceBatchMultiPartition(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("jobs", 4); err != nil {
		t.Fatal(err)
	}
	recs := make([]BatchRecord, 32)
	for i := range recs {
		recs[i] = BatchRecord{Key: fmt.Sprintf("key-%d", i%8), Value: []byte(fmt.Sprintf("v%03d", i))}
	}
	offsets, err := b.ProduceBatchTracedAt("jobs", recs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != len(recs) {
		t.Fatalf("%d offsets for %d records", len(offsets), len(recs))
	}
	// Replay each partition and match every batch record exactly once,
	// in batch order within its partition.
	matched := 0
	for part := 0; part < 4; part++ {
		msgs, err := b.ConsumeFrom("jobs", part, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		last := -1
		for _, m := range msgs {
			idx := -1
			for i := range recs { // values are unique per record
				if bytes.Equal(m.Value, []byte(fmt.Sprintf("v%03d", i))) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Fatalf("partition %d has unexpected message %q", part, m.Value)
			}
			if idx <= last {
				t.Errorf("partition %d violates batch order: record %d after %d", part, idx, last)
			}
			last = idx
			if offsets[idx] != m.Offset {
				t.Errorf("record %d: reported offset %d, stored %d", idx, offsets[idx], m.Offset)
			}
			matched++
		}
	}
	if matched != len(recs) {
		t.Errorf("matched %d of %d records across partitions", matched, len(recs))
	}
}

// TestProduceBatchAllOrNothing arms one produce fault and checks the
// whole batch fails with no partial append — then succeeds once the
// fault is consumed.
func TestProduceBatchAllOrNothing(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("jobs", 2); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	plane := faults.NewPlane(7)
	b.AttachFaults(plane)
	plane.Enqueue(faults.SiteBusProduce, faults.KindError)

	if _, err := b.ProduceBatchTracedAt("jobs", batchOf(8, "k"), 0, nil); err == nil {
		t.Fatal("batch with armed fault succeeded")
	}
	for part := 0; part < 2; part++ {
		msgs, err := b.ConsumeFrom("jobs", part, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 0 {
			t.Fatalf("failed batch left %d records in partition %d", len(msgs), part)
		}
	}
	if got := reg.Counter("msgbus_produced_total").Value(); got != 0 {
		t.Errorf("produced counter = %d after failed batch, want 0", got)
	}

	offsets, err := b.ProduceBatchTracedAt("jobs", batchOf(8, "k"), 0, nil)
	if err != nil {
		t.Fatalf("batch after fault drained: %v", err)
	}
	if len(offsets) != 8 {
		t.Fatalf("got %d offsets, want 8", len(offsets))
	}
	if got := reg.Counter("msgbus_produced_total").Value(); got != 8 {
		t.Errorf("produced counter = %d, want 8", got)
	}
}

// TestConsumeFromBounds pins the batched read's edge cases: offset at
// the log end is an empty read, past the end is ErrBadOffset, and max
// truncates.
func TestConsumeFromBounds(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("jobs", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProduceBatchTracedAt("jobs", batchOf(5, "k"), 0, nil); err != nil {
		t.Fatal(err)
	}
	msgs, err := b.ConsumeFrom("jobs", 0, 5, 0)
	if err != nil || len(msgs) != 0 {
		t.Errorf("read at log end: %d msgs, err %v; want empty, nil", len(msgs), err)
	}
	if _, err := b.ConsumeFrom("jobs", 0, 6, 0); !errors.Is(err, ErrBadOffset) {
		t.Errorf("read past log end: %v, want ErrBadOffset", err)
	}
	msgs, err = b.ConsumeFrom("jobs", 0, 1, 2)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("bounded read: %d msgs, err %v; want 2, nil", len(msgs), err)
	}
	if msgs[0].Offset != 1 || msgs[1].Offset != 2 {
		t.Errorf("bounded read offsets %d,%d; want 1,2", msgs[0].Offset, msgs[1].Offset)
	}
}

// TestConcurrentBatchProducers races batch producers on one topic and
// checks every batch stayed contiguous per partition and nothing was
// lost or double-assigned. Run with -race this also exercises the
// per-partition locking of the batched path.
func TestConcurrentBatchProducers(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("jobs", 1); err != nil {
		t.Fatal(err)
	}
	const (
		producers = 8
		perBatch  = 16
		batches   = 10
	)
	var wg sync.WaitGroup
	offsetSets := make([][][]int64, producers)
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < batches; n++ {
				offs, err := b.ProduceBatchTracedAt("jobs", batchOf(perBatch, "k"), time.Duration(n), nil)
				if err != nil {
					t.Error(err)
					return
				}
				offsetSets[g] = append(offsetSets[g], offs)
			}
		}(g)
	}
	wg.Wait()

	total := producers * perBatch * batches
	msgs, err := b.ConsumeFrom("jobs", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != total {
		t.Fatalf("partition has %d records, want %d", len(msgs), total)
	}
	seen := make(map[int64]bool, total)
	for _, offs := range offsetSets {
		for _, batch := range offs {
			for i := 1; i < len(batch); i++ {
				if batch[i] != batch[i-1]+1 {
					t.Fatalf("batch offsets not contiguous: %v", batch)
				}
			}
			for _, off := range batch {
				if seen[off] {
					t.Fatalf("offset %d assigned twice", off)
				}
				seen[off] = true
			}
		}
	}
	if len(seen) != total {
		t.Errorf("%d distinct offsets, want %d", len(seen), total)
	}
}

// TestConsumeFromTracedAt checks the traced batched consume: one
// "consume-batch" journal event per non-empty read (linked back to the
// producer's batch event), dwell recorded per stamped record, one
// msgbus.consume fault consultation per call, and no event on an empty
// poll.
func TestConsumeFromTracedAt(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("jobs", 1); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	b.Instrument(reg)
	journal := events.NewJournal(0)
	sc := journal.NewScope("test", "batch-read", 0)

	if _, err := b.ProduceBatchTracedAt("jobs", batchOf(4, "k"), time.Millisecond, sc); err != nil {
		t.Fatal(err)
	}
	msgs, err := b.ConsumeFromTracedAt("jobs", 0, 0, 0, 3*time.Millisecond, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 {
		t.Fatalf("consumed %d messages, want 4", len(msgs))
	}
	var produceRef events.Ref
	var batchEvents []events.Event
	for _, e := range journal.Events() {
		switch e.Name {
		case "produce-batch":
			produceRef = events.Ref{Trace: e.Trace, Span: e.Span}
		case "consume-batch":
			batchEvents = append(batchEvents, e)
		}
	}
	if len(batchEvents) != 1 {
		t.Fatalf("journal has %d consume-batch events, want 1", len(batchEvents))
	}
	if batchEvents[0].Link != produceRef {
		t.Errorf("consume-batch link = %+v, want the produce-batch ref %+v", batchEvents[0].Link, produceRef)
	}
	count := ""
	for _, a := range batchEvents[0].Attrs {
		if a.Key == "count" {
			count = a.Value
		}
	}
	if count != "4" {
		t.Errorf("consume-batch count attr = %q, want 4", count)
	}
	if got, _, _ := reg.Histogram("msgbus_dwell").Summary(); got != 4 {
		t.Errorf("dwell observations = %d, want one per record", got)
	}

	// An empty poll at the log end records no journal event.
	before := journal.Len()
	if _, err := b.ConsumeFromTracedAt("jobs", 0, 4, 0, 4*time.Millisecond, sc); err != nil {
		t.Fatal(err)
	}
	if journal.Len() != before {
		t.Errorf("empty traced poll appended %d events", journal.Len()-before)
	}

	// The consume site is consulted once per call: a single armed fault
	// fails the whole poll, and the next poll succeeds.
	plane := faults.NewPlane(11)
	b.AttachFaults(plane)
	plane.Enqueue(faults.SiteBusConsume, faults.KindError)
	if _, err := b.ConsumeFromTracedAt("jobs", 0, 0, 0, 5*time.Millisecond, sc); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("armed consume fault: err %v, want ErrInjected", err)
	}
	msgs, err = b.ConsumeFromTracedAt("jobs", 0, 0, 0, 6*time.Millisecond, sc)
	if err != nil || len(msgs) != 4 {
		t.Fatalf("poll after fault drained: %d msgs, err %v", len(msgs), err)
	}
}
