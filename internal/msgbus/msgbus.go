// Package msgbus implements the Kafka-like message bus Fireworks uses as
// its parameter passer (§3.6): before resuming a snapshot, the platform
// produces the invocation arguments to a per-function-instance topic; the
// resumed guest consumes exactly one message from the latest offset
// (the paper shells out to `kafkacat -o -1 -c 1`).
//
// The broker supports multiple topics, partitioned append-only logs,
// offset-based consumption, and "latest" reads, which is the subset of
// Kafka the platform depends on.
package msgbus

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// Errors returned by the broker.
var (
	ErrNoTopic   = errors.New("msgbus: topic does not exist")
	ErrBadOffset = errors.New("msgbus: offset out of range")
	ErrEmpty     = errors.New("msgbus: topic is empty")
)

// Message is one record in a topic partition.
type Message struct {
	Offset int64
	Value  []byte
	// ProducedAt is the producer's virtual-clock position when the
	// record was appended (see ProduceTracedAt); stamped reports whether it
	// was set, so dwell time is only measured for stamped records.
	ProducedAt time.Duration
	stamped    bool
	// Produced is the journal reference of the producer's "produce"
	// event (zero when the producer was untraced). A traced consume
	// links its event back to it — the causal produce→consume edge.
	Produced events.Ref
}

// Broker is an in-process message bus. It is safe for concurrent use.
type Broker struct {
	mu     sync.Mutex
	topics map[string]*topic

	// Observability (nil-safe; see Instrument).
	depth    *metrics.Gauge
	produced *metrics.Counter
	consumed *metrics.Counter
	dwell    *metrics.Histogram

	// faults, when attached, injects failures at the msgbus.produce and
	// msgbus.consume sites (nil-safe). The broker has no invocation
	// clock, so only error-class faults make sense here.
	faults *faults.Plane
}

// AttachFaults arms the broker's fault-injection sites.
func (b *Broker) AttachFaults(p *faults.Plane) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.faults = p
}

// Instrument attaches the broker to a metrics registry: queue depth
// across all topics, produced/consumed counters, and the queue dwell
// histogram (virtual time a record waits between ProduceTracedAt and a
// stamped consume — the §3.6 parameter-passing cost the paper folds
// into "others").
func (b *Broker) Instrument(reg *metrics.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.depth = reg.Gauge("msgbus_queue_depth")
	b.produced = reg.Counter("msgbus_produced_total")
	b.consumed = reg.Counter("msgbus_consumed_total")
	b.dwell = reg.Histogram("msgbus_dwell")
}

type topic struct {
	partitions []*partition
}

type partition struct {
	mu      sync.Mutex
	records []Message
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: make(map[string]*topic)}
}

// CreateTopic creates a topic with the given number of partitions.
// Creating an existing topic is a no-op if the partition count matches.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("msgbus: topic %q needs at least one partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[name]; ok {
		if len(t.partitions) != partitions {
			return fmt.Errorf("msgbus: topic %q exists with %d partitions", name, len(t.partitions))
		}
		return nil
	}
	t := &topic{}
	for i := 0; i < partitions; i++ {
		t.partitions = append(t.partitions, &partition{})
	}
	b.topics[name] = t
	return nil
}

// DeleteTopic removes a topic and all its records.
func (b *Broker) DeleteTopic(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[name]; ok {
		var records int64
		for _, p := range t.partitions {
			p.mu.Lock()
			records += int64(len(p.records))
			p.mu.Unlock()
		}
		b.depth.Add(-records)
	}
	delete(b.topics, name)
}

// TopicCount reports how many topics exist. The lifecycle tests use it
// to prove no per-invocation topic outlives its invocation.
func (b *Broker) TopicCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.topics)
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTopic, name)
	}
	return t, nil
}

// partitionFor hashes a key onto one of the topic's partitions (FNV-1a),
// or partition 0 for an empty key.
func (t *topic) partitionFor(key string) *partition {
	if key == "" || len(t.partitions) == 1 {
		return t.partitions[0]
	}
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return t.partitions[h%uint32(len(t.partitions))]
}

// Produce appends a record and returns its partition and offset.
func (b *Broker) Produce(topicName, key string, value []byte) (partitionID int, offset int64, err error) {
	return b.produce(topicName, key, value, 0, false, nil)
}

// ProduceTracedAt is Produce at the producer's virtual-clock position,
// under an event scope. The record is stamped so a later stamped
// consume can measure queue dwell on the same clock; the append emits
// a "produce" event and the record carries the event's journal
// reference, so the eventual consumer's event links back to this
// produce.
func (b *Broker) ProduceTracedAt(topicName, key string, value []byte, at time.Duration, sc *events.Scope) (partitionID int, offset int64, err error) {
	return b.produce(topicName, key, value, at, true, sc)
}

func (b *Broker) produce(topicName, key string, value []byte, at time.Duration, stamped bool, sc *events.Scope) (partitionID int, offset int64, err error) {
	if err := b.faults.InjectTraced(faults.SiteBusProduce, nil, sc, at); err != nil {
		return 0, 0, fmt.Errorf("msgbus: produce to %q: %w", topicName, err)
	}
	t, err := b.topic(topicName)
	if err != nil {
		return 0, 0, err
	}
	p := t.partitionFor(key)
	for i, cand := range t.partitions {
		if cand == p {
			partitionID = i
			break
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	offset = int64(len(p.records))
	ref := sc.Instant("msgbus", "produce", at,
		events.A("topic", topicName), events.A("offset", strconv.FormatInt(offset, 10)))
	p.records = append(p.records, Message{
		Offset:     offset,
		Value:      append([]byte(nil), value...),
		ProducedAt: at,
		stamped:    stamped,
		Produced:   ref,
	})
	b.produced.Inc()
	b.depth.Add(1)
	return partitionID, offset, nil
}

// BatchRecord is one record of a batched produce.
type BatchRecord struct {
	Key   string
	Value []byte
}

// ProduceBatchTracedAt appends a batch of records to one topic under a
// single broker-lock acquisition and one lock acquisition per touched
// partition, every record stamped with the producer's virtual-clock
// position at. The batch emits ONE "produce-batch" journal event (not
// one per record) and every record carries its reference, so consumes
// still link back causally while the journal cost is amortized across
// the batch. It preserves the unbatched path's semantics:
//
//   - fault sites: the msgbus.produce site is consulted once per
//     record (same seeded schedule as N single produces); any injected
//     fault fails the whole batch before a single record lands, so a
//     partial batch is never visible.
//   - FIFO: records land in their partitions in batch order, and the
//     whole batch appends atomically per partition — records of one
//     batch are contiguous in each partition's log.
func (b *Broker) ProduceBatchTracedAt(topicName string, recs []BatchRecord, at time.Duration, sc *events.Scope) (offsets []int64, err error) {
	if len(recs) == 0 {
		return nil, nil
	}
	for range recs {
		if err := b.faults.InjectTraced(faults.SiteBusProduce, nil, sc, at); err != nil {
			return nil, fmt.Errorf("msgbus: produce batch to %q: %w", topicName, err)
		}
	}
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	ref := sc.Instant("msgbus", "produce-batch", at,
		events.A("topic", topicName), events.A("count", strconv.Itoa(len(recs))))
	// Group record indexes by partition so each partition lock is
	// taken exactly once.
	partIdx := make(map[*partition]int, len(t.partitions))
	for i, p := range t.partitions {
		partIdx[p] = i
	}
	byPart := make(map[*partition][]int)
	for i, rec := range recs {
		p := t.partitionFor(rec.Key)
		byPart[p] = append(byPart[p], i)
	}
	offsets = make([]int64, len(recs))
	for _, p := range t.partitions {
		idxs := byPart[p]
		if len(idxs) == 0 {
			continue
		}
		p.mu.Lock()
		base := int64(len(p.records))
		for k, i := range idxs {
			offsets[i] = base + int64(k)
			p.records = append(p.records, Message{
				Offset:     offsets[i],
				Value:      append([]byte(nil), recs[i].Value...),
				ProducedAt: at,
				stamped:    true,
				Produced:   ref,
			})
		}
		p.mu.Unlock()
	}
	b.produced.Add(int64(len(recs)))
	b.depth.Add(int64(len(recs)))
	return offsets, nil
}

// ConsumeFrom returns up to max records of a partition starting at
// offset, under a single lock acquisition — the batched counterpart of
// repeated ConsumeAt calls. It returns ErrBadOffset when offset is past
// the log end (offset == len is an empty, error-free read).
func (b *Broker) ConsumeFrom(topicName string, partitionID int, offset int64, max int) ([]Message, error) {
	return b.consumeFrom(topicName, partitionID, offset, max, 0, false, nil)
}

// consumeFrom is the shared batch-read path. When sc is non-nil, dwell
// observations carry the scope's trace as their exemplar.
func (b *Broker) consumeFrom(topicName string, partitionID int, offset int64, max int, at time.Duration, clocked bool, sc *events.Scope) ([]Message, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if partitionID < 0 || partitionID >= len(t.partitions) {
		return nil, fmt.Errorf("msgbus: topic %q has no partition %d", topicName, partitionID)
	}
	p := t.partitions[partitionID]
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < 0 || offset > int64(len(p.records)) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadOffset, offset, len(p.records))
	}
	end := int64(len(p.records))
	if max > 0 && offset+int64(max) < end {
		end = offset + int64(max)
	}
	out := append([]Message(nil), p.records[offset:end]...)
	if clocked {
		for _, m := range out {
			if m.stamped && at >= m.ProducedAt {
				b.dwell.ObserveDurationExemplar(at-m.ProducedAt, uint64(sc.TraceID()), at)
			}
		}
	}
	b.consumed.Add(int64(len(out)))
	return out, nil
}

// ConsumeFromTracedAt is ConsumeFrom at the consumer's virtual-clock
// position at, under an event scope: the consume-side symmetry of
// ProduceBatchTracedAt. The msgbus.consume fault site is consulted
// once for the whole batch (a consumer group poll fails or succeeds
// as a unit), and a non-empty read emits ONE "consume-batch" journal
// event — causally linked to the first record's produce event —
// instead of one event per record. Queue dwell is still recorded per
// stamped record.
func (b *Broker) ConsumeFromTracedAt(topicName string, partitionID int, offset int64, max int, at time.Duration, sc *events.Scope) ([]Message, error) {
	if err := b.faults.InjectTraced(faults.SiteBusConsume, nil, sc, at); err != nil {
		return nil, fmt.Errorf("msgbus: consume from %q: %w", topicName, err)
	}
	msgs, err := b.consumeFrom(topicName, partitionID, offset, max, at, true, sc)
	if err != nil {
		return nil, err
	}
	if len(msgs) > 0 {
		sc.InstantLinked("msgbus", "consume-batch", at, msgs[0].Produced,
			events.A("topic", topicName),
			events.A("offset", strconv.FormatInt(offset, 10)),
			events.A("count", strconv.Itoa(len(msgs))))
	}
	return msgs, nil
}

// ConsumeAt returns the record at the given offset of a partition.
func (b *Broker) ConsumeAt(topicName string, partitionID int, offset int64) (Message, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return Message{}, err
	}
	if partitionID < 0 || partitionID >= len(t.partitions) {
		return Message{}, fmt.Errorf("msgbus: topic %q has no partition %d", topicName, partitionID)
	}
	p := t.partitions[partitionID]
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < 0 || offset >= int64(len(p.records)) {
		return Message{}, fmt.Errorf("%w: %d of %d", ErrBadOffset, offset, len(p.records))
	}
	return p.records[offset], nil
}

// ConsumeLatest returns the most recent record in partition 0, the
// semantics of `kafkacat -C -o -1 -c 1`. It returns ErrEmpty when the
// partition has no records.
func (b *Broker) ConsumeLatest(topicName string) (Message, error) {
	return b.consumeLatest(topicName, 0, nil)
}

func (b *Broker) consumeLatest(topicName string, at time.Duration, sc *events.Scope) (Message, error) {
	if err := b.faults.InjectTraced(faults.SiteBusConsume, nil, sc, at); err != nil {
		return Message{}, fmt.Errorf("msgbus: consume from %q: %w", topicName, err)
	}
	t, err := b.topic(topicName)
	if err != nil {
		return Message{}, err
	}
	p := t.partitions[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.records) == 0 {
		return Message{}, fmt.Errorf("%w: %q", ErrEmpty, topicName)
	}
	b.consumed.Inc()
	return p.records[len(p.records)-1], nil
}

// ConsumeLatestTracedAt is ConsumeLatest at the consumer's
// virtual-clock position, under an event scope. When the returned
// record was stamped by a produce on the same clock, the elapsed queue
// dwell is recorded; the read emits a "consume" event causally linked
// to the record's "produce" event (when the producer was traced).
func (b *Broker) ConsumeLatestTracedAt(topicName string, at time.Duration, sc *events.Scope) (Message, error) {
	msg, err := b.consumeLatest(topicName, at, sc)
	if err != nil {
		return msg, err
	}
	if msg.stamped && at >= msg.ProducedAt {
		b.dwell.ObserveDurationExemplar(at-msg.ProducedAt, uint64(sc.TraceID()), at)
	}
	sc.InstantLinked("msgbus", "consume", at, msg.Produced,
		events.A("topic", topicName), events.A("offset", strconv.FormatInt(msg.Offset, 10)))
	return msg, nil
}
