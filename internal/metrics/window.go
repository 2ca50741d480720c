package metrics

import (
	"cmp"
	"slices"

	"repro/internal/stats"
)

// blockCap bounds one sorted block of a window. An insert or an evict
// moves at most this many samples and a rank lookup steps over at most
// 4*maxSamples/blockCap blocks, so none of them costs more in a full
// window than the constant these two numbers set.
const blockCap = 512

// window is a histogram's raw-sample window: the most recent maxSamples
// observations, held twice. ring keeps them in arrival order, so the
// sample to evict is known once the window is full; blocks keeps the
// same samples in ascending order, cut into consecutive sorted blocks
// of at most blockCap, so a quantile is a rank lookup instead of a copy
// and a sort of the whole window. The order is cmp.Compare's, which is
// sort.Float64s's (NaNs first), so every rank — and every quantile read
// through stats.PercentileSorted — is the one stats.Percentile finds by
// sorting ring.
type window struct {
	ring   []float64
	next   int // ring cursor: the oldest sample once the ring is full
	blocks [][]float64
}

// observe adds v, evicting the oldest sample from a full window.
func (w *window) observe(v float64) {
	if len(w.ring) < maxSamples {
		w.ring = append(w.ring, v)
	} else {
		w.remove(w.ring[w.next])
		w.ring[w.next] = v
		w.next = (w.next + 1) % maxSamples
	}
	w.insert(v)
}

// find returns the block, and the offset in it, of the first sample
// not ordered before v — where v goes, or where a held v is. When every
// sample is before v that is the end of the last block. The window
// must hold at least one sample.
func (w *window) find(v float64) (b, i int) {
	b, _ = slices.BinarySearchFunc(w.blocks, v, func(blk []float64, v float64) int {
		return cmp.Compare(blk[len(blk)-1], v)
	})
	b = min(b, len(w.blocks)-1)
	i, _ = slices.BinarySearch(w.blocks[b], v)
	return b, i
}

func (w *window) insert(v float64) {
	if len(w.blocks) == 0 {
		w.blocks = [][]float64{{v}}
		return
	}
	b, i := w.find(v)
	blk := slices.Insert(w.blocks[b], i, v)
	w.blocks[b] = blk
	if len(blk) > blockCap {
		half := len(blk) / 2
		w.blocks[b] = blk[:half]
		w.blocks = slices.Insert(w.blocks, b+1, slices.Clone(blk[half:]))
	}
}

// remove takes out one sample equal to v, which the window must hold.
// Equal samples are interchangeable, so the first in order goes.
func (w *window) remove(v float64) {
	b, i := w.find(v)
	w.blocks[b] = slices.Delete(w.blocks[b], i, i+1)
	if len(w.blocks[b]) == 0 {
		w.blocks = slices.Delete(w.blocks, b, b+1)
		return
	}
	// Keep every two neighbours above blockCap/2 together, which is what
	// bounds the block count: fold a thin block into the one before it.
	for _, k := range [2]int{b + 1, b} {
		if k > 0 && k < len(w.blocks) && len(w.blocks[k-1])+len(w.blocks[k]) <= blockCap/2 {
			w.blocks[k-1] = append(w.blocks[k-1], w.blocks[k]...)
			w.blocks = slices.Delete(w.blocks, k, k+1)
		}
	}
}

// at returns the sample of the given rank (0 = smallest).
func (w *window) at(rank int) float64 {
	for _, blk := range w.blocks {
		if rank < len(blk) {
			return blk[rank]
		}
		rank -= len(blk)
	}
	panic("metrics: window rank out of range")
}

// percentile is stats.Percentile over the window's samples.
func (w *window) percentile(p float64) float64 {
	return stats.PercentileSorted(len(w.ring), w.at, p)
}
