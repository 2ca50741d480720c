// Package chunk implements content-addressed chunking of snapshot
// images. An image is split into fixed-size chunks; each chunk's
// identity is a deterministic hash of its content class (what the bytes
// are: a kernel page range, a language runtime, one function's
// JIT-compiled heap), so two images built from the same content produce
// the same chunk IDs and a chunk pool stores the shared bytes once.
// A post-JIT function snapshot then lives in the store as a *delta*
// over the shared base-runtime image: only the chunks whose class is
// unique to the function (keyed {function_id}_{code_hash}) add bytes.
//
// Chunk IDs are pure functions of (class, kind, ordinal, index) — FNV-1a
// whitened by SplitMix64 — so same-seed simulation runs produce
// byte-identical manifests and the dedup accounting is reproducible.
package chunk

// Size is the fixed chunk granularity. 4 MiB balances dedup precision
// against manifest length: a ~230 MiB post-JIT image is ~58 chunks, and
// a function's private heap+JIT delta is a handful of them. The last
// chunk of each region is partial, so a manifest's chunk sizes sum
// exactly to the image's byte size.
const Size = 4 << 20

// Chunk is one fixed-size (or trailing partial) piece of a snapshot
// image.
type Chunk struct {
	// ID is the content hash: equal IDs mean equal bytes, shareable
	// across images in a pool.
	ID uint64
	// Bytes is the chunk length: Size, except for the last chunk of a
	// region.
	Bytes uint64
}

// Region describes one contiguous content run of an image to chunk: a
// content class (shared across images with identical content), the
// memory kind for observability, and the byte length.
type Region struct {
	Class string
	Kind  string
	Bytes uint64
}

// ID hashes a chunk identity: FNV-1a over class and kind, the region's
// ordinal (distinguishing repeated (class, kind) runs within one
// image), and the chunk index, whitened by SplitMix64.
func ID(class, kind string, ordinal, index int) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= 1099511628211
	}
	mix(class)
	mix(kind)
	h ^= uint64(ordinal)<<32 | uint64(uint32(index))
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Manifest is the ordered chunk list of one image, plus the per-region
// ranges so fault telemetry (which works in region-relative pages) can
// be mapped back to chunks.
type Manifest struct {
	chunks  []Chunk
	regions []regionRange
}

type regionRange struct {
	start, count int
}

// Build chunks an image described by its content regions, in order.
func Build(regions []Region) *Manifest {
	m := &Manifest{}
	seen := map[[2]string]int{}
	for _, reg := range regions {
		key := [2]string{reg.Class, reg.Kind}
		ordinal := seen[key]
		seen[key] = ordinal + 1
		start := len(m.chunks)
		remaining := reg.Bytes
		for index := 0; remaining > 0; index++ {
			b := uint64(Size)
			if remaining < b {
				b = remaining
			}
			m.chunks = append(m.chunks, Chunk{
				ID:    ID(reg.Class, reg.Kind, ordinal, index),
				Bytes: b,
			})
			remaining -= b
		}
		m.regions = append(m.regions, regionRange{start: start, count: len(m.chunks) - start})
	}
	return m
}

// Chunks returns the manifest's chunks in image layout order.
func (m *Manifest) Chunks() []Chunk { return append([]Chunk(nil), m.chunks...) }

// RegionChunks returns the chunks of the i-th content region, in order.
// The returned slice aliases the manifest; callers must not mutate it.
func (m *Manifest) RegionChunks(i int) []Chunk {
	r := m.regions[i]
	return m.chunks[r.start : r.start+r.count]
}

// UniqueBytes returns the pool footprint of the manifest alone: the sum
// of chunk sizes counting each distinct chunk ID once.
func (m *Manifest) UniqueBytes() uint64 {
	seen := make(map[uint64]struct{}, len(m.chunks))
	var total uint64
	for _, c := range m.chunks {
		if _, ok := seen[c.ID]; ok {
			continue
		}
		seen[c.ID] = struct{}{}
		total += c.Bytes
	}
	return total
}

// BytesOf sums the sizes of a chunk slice.
func BytesOf(chunks []Chunk) uint64 {
	var total uint64
	for _, c := range chunks {
		total += c.Bytes
	}
	return total
}
