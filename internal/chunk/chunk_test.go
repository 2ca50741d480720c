package chunk

import (
	"slices"
	"testing"
)

func TestBuildSizesSumExactly(t *testing.T) {
	m := Build([]Region{
		{Class: "base:kernel", Kind: "kernel", Bytes: 103 << 20},
		{Class: "fn:hello_ab", Kind: "heap", Bytes: 11<<20 + 137}, // not chunk-aligned
	})
	for _, c := range m.Chunks() {
		if c.Bytes == 0 || c.Bytes > Size {
			t.Fatalf("chunk size %d out of range", c.Bytes)
		}
	}
	if sum := BytesOf(m.Chunks()); sum != (103<<20)+(11<<20)+137 {
		t.Fatalf("chunk sizes sum to %d", sum)
	}
	if got := len(m.RegionChunks(0)) + len(m.RegionChunks(1)); got != len(m.Chunks()) {
		t.Fatalf("region chunks %d != total %d", got, len(m.Chunks()))
	}
}

func TestIDsDeterministicAndClassSensitive(t *testing.T) {
	a := Build([]Region{{Class: "base:runtime:node", Kind: "runtime", Bytes: 64 << 20}})
	b := Build([]Region{{Class: "base:runtime:node", Kind: "runtime", Bytes: 64 << 20}})
	for i := range a.Chunks() {
		if a.Chunks()[i].ID != b.Chunks()[i].ID {
			t.Fatalf("same class produced different IDs at chunk %d", i)
		}
	}
	c := Build([]Region{{Class: "base:runtime:python", Kind: "runtime", Bytes: 64 << 20}})
	if a.Chunks()[0].ID == c.Chunks()[0].ID {
		t.Fatal("different classes produced the same chunk ID")
	}
	// Two runs of the same (class, kind) within one image must not
	// self-collide: the ordinal distinguishes them.
	d := Build([]Region{
		{Class: "x", Kind: "heap", Bytes: Size},
		{Class: "x", Kind: "heap", Bytes: Size},
	})
	if d.UniqueBytes() != 2*Size {
		t.Fatalf("repeated region self-deduped: unique %d", d.UniqueBytes())
	}
}

func TestDeltaOverBase(t *testing.T) {
	base := Build([]Region{
		{Class: "base:kernel", Kind: "kernel", Bytes: 100 << 20},
		{Class: "base:runtime:node", Kind: "runtime", Bytes: 64 << 20},
	})
	fn := Build([]Region{
		{Class: "fn:hello_ab", Kind: "heap", Bytes: 12 << 20},
		{Class: "base:kernel", Kind: "kernel", Bytes: 100 << 20},
		{Class: "base:runtime:node", Kind: "runtime", Bytes: 64 << 20},
	})
	// A pool holding base admits only the chunks it lacks.
	inBase := map[uint64]bool{}
	for _, c := range base.Chunks() {
		inBase[c.ID] = true
	}
	var delta []Chunk
	for _, c := range fn.Chunks() {
		if !inBase[c.ID] {
			delta = append(delta, c)
		}
	}
	if got := BytesOf(delta); got != 12<<20 {
		t.Fatalf("delta = %d bytes, want the 12 MiB function heap", got)
	}
	heap := Build([]Region{{Class: "fn:hello_ab", Kind: "heap", Bytes: 12 << 20}}).Chunks()
	if !slices.Equal(delta, heap) {
		t.Fatalf("delta holds chunks of another class: %v, want the heap's %v", delta, heap)
	}
}
