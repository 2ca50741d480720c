package metrics

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/stats"
)

// blockCap bounds a window's sorted blocks: a new value that takes a
// block past blockCap samples splits it, and neighbours holding
// blockCap/2 samples or fewer together merge. An observe then shifts or
// re-counts at most blockCap entries and a rank lookup steps over at
// most 4*maxSamples/blockCap+1 blocks, however full the window is.
const blockCap = 512

// window is a histogram's raw-sample window: the most recent maxSamples
// observations in arrival order (ring, which names the sample to
// evict), and each distinct value among them once, ascending in
// consecutive blocks, with a count where it is held more than once.
// The order is cmp.Compare's, which is sort.Float64s's, so every rank
// read through stats.PercentileSorted is the one stats.Percentile finds
// by sorting ring. sizes and tops hold each block's sample count and
// largest value in short arrays. stepped and moved count the blocks rank
// lookups step over and the entries observes shift, copy or re-count:
// work a benchmark can hold to an exact number.
type window struct {
	ring   []float64
	next   int // ring cursor: the oldest sample once the ring is full
	blocks []block
	sizes  []int
	tops   []float64

	stepped, moved uint64
}

// block is a run of distinct values in ascending order, and the ones
// among them held more than once, ascending.
type block struct {
	vals []float64
	ties []tie
}

// tie marks vals[at] as held more than once. extra counts the samples
// beyond one per value that vals[:at+1] stand for, so a rank inside a
// block is a binary search over its ties, or an index without them.
type tie struct{ at, extra int32 }

// surplus is the extra samples of the values before ties[j].
func (blk *block) surplus(j int) int32 {
	if j == 0 {
		return 0
	}
	return blk.ties[j-1].extra
}

// tieFrom returns the index of the first tie at vals index i or after.
func (blk *block) tieFrom(i int) int {
	j, _ := slices.BinarySearchFunc(blk.ties, int32(i), func(t tie, i int32) int { return int(t.at - i) })
	return j
}

// index returns the index of the value that the block's rank-th sample is.
func (blk *block) index(rank int) int {
	r := int32(rank) // the first tie whose samples start after rank:
	lo := sort.Search(len(blk.ties), func(j int) bool { return blk.ties[j].at+blk.surplus(j) > r })
	if lo == 0 {
		return rank
	} else if t := blk.ties[lo-1]; r > t.at+t.extra {
		return int(r - t.extra)
	} else {
		return int(t.at)
	}
}

// observe adds v, evicting the oldest sample from a full window.
func (w *window) observe(v float64) {
	if len(w.ring) < maxSamples {
		w.ring = append(w.ring, v)
	} else {
		w.add(w.ring[w.next], -1)
		w.ring[w.next] = v
		w.next = (w.next + 1) % maxSamples
	}
	w.add(v, 1)
}

// add puts one sample v in (d = 1) or takes one out (d = -1; the
// window must hold it).
func (w *window) add(v float64, d int) {
	if len(w.blocks) == 0 {
		w.blocks, w.sizes, w.tops = []block{{vals: []float64{v}}}, []int{1}, []float64{v}
		return
	}
	// The first value not below v, past the last block's end if none is.
	b, _ := slices.BinarySearch(w.tops, v)
	b = min(b, len(w.tops)-1)
	blk := &w.blocks[b]
	i, _ := slices.BinarySearch(blk.vals, v)
	j := blk.tieFrom(i)
	w.sizes[b] += d
	held, tied := i < len(blk.vals) && cmp.Compare(blk.vals[i], v) == 0, j < len(blk.ties) && blk.ties[j].at == int32(i)
	if held && (d > 0 || tied) { // count v once more or once less
		if !tied {
			blk.ties = slices.Insert(blk.ties, j, tie{int32(i), blk.surplus(j)})
		}
		w.moved += uint64(len(blk.ties) - j - 1)
		for t := j; t < len(blk.ties); t++ {
			blk.ties[t].extra += int32(d)
		}
		if blk.ties[j].extra == blk.surplus(j) { // held once now
			blk.ties = slices.Delete(blk.ties, j, j+1)
		}
	} else { // v's first sample, or its last
		w.moved += uint64(len(blk.ties) - j)
		if d > 0 {
			w.moved += uint64(len(blk.vals) - i)
			blk.vals = slices.Insert(blk.vals, i, v)
		} else {
			w.moved += uint64(len(blk.vals) - i - 1)
			blk.vals = slices.Delete(blk.vals, i, i+1)
		}
		for t := j; t < len(blk.ties); t++ {
			blk.ties[t].at += int32(d)
		}
	}
	if w.sizes[b] == 0 {
		w.deleteBlock(b)
		return
	}
	w.tops[b] = blk.vals[len(blk.vals)-1]
	hi := b + 1
	if n := w.sizes[b]; n > blockCap && len(blk.vals) > 1 {
		// Cut at the middle sample's value, leaving one on each side.
		cut := min(max(blk.index(n/2), 1), len(blk.vals)-1)
		tj := blk.tieFrom(cut)
		below := blk.surplus(tj)
		w.moved += uint64(len(blk.vals) - cut + len(blk.ties) - tj)
		upper := block{slices.Clone(blk.vals[cut:]), slices.Clone(blk.ties[tj:])}
		for t := range upper.ties {
			upper.ties[t].at -= int32(cut)
			upper.ties[t].extra -= below
		}
		blk.vals, blk.ties = blk.vals[:cut], blk.ties[:tj]
		w.blocks = slices.Insert(w.blocks, b+1, upper)
		w.sizes = slices.Insert(w.sizes, b+1, n-cut-int(below))
		w.tops = slices.Insert(w.tops, b+1, w.tops[b])
		w.sizes[b], w.tops[b] = cut+int(below), w.blocks[b].vals[cut-1]
		hi = b + 2 // a cut beside a value held many times can leave a thin block
	}
	// Keep every two neighbours above blockCap/2 samples, which is what
	// bounds the block count: fold a thin block into the one before it.
	for _, j := range [2]int{hi, b} {
		if j > 0 && j < len(w.blocks) && w.sizes[j-1]+w.sizes[j] <= blockCap/2 {
			prev, next := &w.blocks[j-1], &w.blocks[j]
			w.moved += uint64(len(next.vals) + len(next.ties))
			base, below := int32(len(prev.vals)), prev.surplus(len(prev.ties))
			prev.vals = append(prev.vals, next.vals...)
			for _, t := range next.ties {
				prev.ties = append(prev.ties, tie{base + t.at, below + t.extra})
			}
			w.sizes[j-1] += w.sizes[j]
			w.tops[j-1] = w.tops[j]
			w.deleteBlock(j)
		}
	}
}

func (w *window) deleteBlock(b int) {
	w.blocks = slices.Delete(w.blocks, b, b+1)
	w.sizes = slices.Delete(w.sizes, b, b+1)
	w.tops = slices.Delete(w.tops, b, b+1)
}

// at returns the sample of the given rank (0 = smallest), stepping
// from whichever end of the window is nearer: a p99 steps over a few
// blocks, not over all of them.
func (w *window) at(rank int) float64 {
	if rank < len(w.ring)/2 {
		for b, n := range w.sizes {
			if rank < n {
				w.stepped += uint64(b + 1)
				return w.blocks[b].vals[w.blocks[b].index(rank)]
			}
			rank -= n
		}
	} else {
		rank = len(w.ring) - 1 - rank // rank from the largest
		for b := len(w.sizes) - 1; b >= 0; b-- {
			if n := w.sizes[b]; rank < n {
				w.stepped += uint64(len(w.sizes) - b)
				return w.blocks[b].vals[w.blocks[b].index(n-1-rank)]
			} else {
				rank -= n
			}
		}
	}
	panic("metrics: window rank out of range")
}

// percentile is stats.Percentile over the window's samples.
func (w *window) percentile(p float64) float64 {
	return stats.PercentileSorted(len(w.ring), w.at, p)
}
