package mem

// run is a stretch of consecutive pages [lo,hi) carrying one count. Both
// per-page facts the model keeps are lists of runs in ascending page
// order: a space's split set (n is always 1) and a region's per-page
// splitter count (n is how many sharers split every page of the run).
// A list holds no zero-count run and no two adjacent runs with the same
// count, so its length follows the number of distinct write patterns,
// not the number of pages written.
type run struct{ lo, hi, n int }

// add returns rs with d added to the count of every page in [lo,hi):
// runs straddling lo or hi are split there, pages the list did not
// cover start from zero, runs whose count reaches zero are dropped and
// equal-count neighbours merged. A count going negative is a
// bookkeeping bug and panics.
func add(rs []run, lo, hi, d int) []run {
	if lo >= hi || d == 0 {
		return rs
	}
	out := make([]run, 0, len(rs)+2)
	push := func(lo, hi, n int) {
		switch k := len(out); {
		case lo >= hi || n == 0:
		case n < 0:
			panic("mem: page split count went negative")
		case k > 0 && out[k-1].hi == lo && out[k-1].n == n:
			out[k-1].hi = hi
		default:
			out = append(out, run{lo, hi, n})
		}
	}
	pos := lo // pages of [lo,hi) below pos are already emitted
	for _, r := range rs {
		if r.hi <= lo {
			push(r.lo, r.hi, r.n)
			continue
		}
		// Uncovered pages of the range ahead of r start from zero.
		if gap := min(r.lo, hi); gap > pos {
			push(pos, gap, d)
			pos = gap
		}
		push(r.lo, min(r.hi, lo), r.n)
		if a, b := max(r.lo, lo), min(r.hi, hi); a < b {
			push(a, b, r.n+d)
			pos = b
		}
		push(max(r.lo, hi), r.hi, r.n)
	}
	push(pos, hi, d)
	return out
}

// uncovered returns the stretches of [lo,hi) no run of rs covers, as
// count-1 runs in ascending order.
func uncovered(rs []run, lo, hi int) []run {
	var out []run
	for _, r := range rs {
		if r.hi <= lo {
			continue
		}
		if r.lo >= hi {
			break
		}
		if r.lo > lo {
			out = append(out, run{lo, r.lo, 1})
		}
		lo = r.hi
	}
	if lo < hi {
		out = append(out, run{lo, hi, 1})
	}
	return out
}

// span returns the number of pages rs covers.
func span(rs []run) int {
	n := 0
	for _, r := range rs {
		n += r.hi - r.lo
	}
	return n
}
