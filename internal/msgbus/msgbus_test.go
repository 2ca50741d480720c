package msgbus

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestProduceConsume(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	part, off, err := b.Produce("t", "k", []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	if part != 0 || off != 0 {
		t.Fatalf("part=%d off=%d", part, off)
	}
	_, off2, _ := b.Produce("t", "k", []byte("v1"))
	if off2 != 1 {
		t.Fatalf("second offset = %d", off2)
	}
	msg, err := b.ConsumeAt("t", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Value) != "v0" || msg.Offset != 0 {
		t.Fatalf("msg = %+v", msg)
	}
}

func TestConsumeLatestSemantics(t *testing.T) {
	// kafkacat -o -1 -c 1: read exactly the newest record.
	b := NewBroker()
	b.CreateTopic("params", 1)
	if _, err := b.ConsumeLatest("params"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty topic err = %v", err)
	}
	b.Produce("params", "", []byte("old"))
	b.Produce("params", "", []byte("new"))
	msg, err := b.ConsumeLatest("params")
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Value) != "new" {
		t.Fatalf("latest = %q", msg.Value)
	}
	// Consuming again still returns the newest (no offset commit).
	again, _ := b.ConsumeLatest("params")
	if string(again.Value) != "new" {
		t.Fatal("latest changed without produce")
	}
}

func TestMissingTopic(t *testing.T) {
	b := NewBroker()
	if _, _, err := b.Produce("nope", "", nil); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.ConsumeLatest("nope"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadOffset(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 1)
	b.Produce("t", "", []byte("x"))
	if _, err := b.ConsumeAt("t", 0, 5); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.ConsumeAt("t", 3, 0); err == nil {
		t.Fatal("bad partition accepted")
	}
}

func TestCreateTopicIdempotent(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatalf("idempotent create failed: %v", err)
	}
	if err := b.CreateTopic("t", 3); err == nil {
		t.Fatal("partition-count change accepted")
	}
	if err := b.CreateTopic("zero", 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestDeleteTopic(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 1)
	b.Produce("t", "", []byte("x"))
	b.DeleteTopic("t")
	if _, err := b.ConsumeLatest("t"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("topic survives delete: %v", err)
	}
}

func TestKeyPartitioningIsStable(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 4)
	first, _, err := b.Produce("t", "stable-key", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, _, _ := b.Produce("t", "stable-key", []byte("b"))
		if p != first {
			t.Fatalf("key moved partition: %d vs %d", p, first)
		}
	}
}

func TestConcurrentProducers(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 1)
	var wg sync.WaitGroup
	const producers, each = 8, 100
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, _, err := b.Produce("t", "", []byte{byte(id)}); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	all, _ := b.ConsumeFrom("t", 0, 0, 0)
	n := len(all)
	if n != producers*each {
		t.Fatalf("log holds %d records, want %d (lost records)", n, producers*each)
	}
	// Offsets are dense and ordered.
	for off := int64(0); off < int64(n); off++ {
		msg, err := b.ConsumeAt("t", 0, off)
		if err != nil || msg.Offset != off {
			t.Fatalf("offset %d: %+v %v", off, msg, err)
		}
	}
}

// TestProduceConsumeRoundTripProperty: every produced value is readable
// at the returned (partition, offset) and matches.
func TestProduceConsumeRoundTripProperty(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("q", 3)
	f := func(key string, value []byte) bool {
		part, off, err := b.Produce("q", key, value)
		if err != nil {
			return false
		}
		msg, err := b.ConsumeAt("q", part, off)
		if err != nil {
			return false
		}
		return string(msg.Value) == string(value) && msg.Offset == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
