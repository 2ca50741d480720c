package mem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/metrics"
)

func TestRunAdd(t *testing.T) {
	cases := []struct {
		name      string
		rs        []run
		lo, hi, d int
		want      []run
	}{
		{"into empty", nil, 3, 7, 1, []run{{3, 7, 1}}},
		{"empty range", []run{{0, 4, 1}}, 2, 2, 1, []run{{0, 4, 1}}},
		{"adjacent equal counts merge", []run{{0, 4, 1}}, 4, 9, 1, []run{{0, 9, 1}}},
		{"adjacent merge on both sides", []run{{0, 4, 1}, {6, 9, 1}}, 4, 6, 1, []run{{0, 9, 1}}},
		{"adjacent different counts stay apart", []run{{0, 4, 2}}, 4, 9, 1, []run{{0, 4, 2}, {4, 9, 1}}},
		{"split at both ends", []run{{0, 10, 1}}, 3, 6, 1, []run{{0, 3, 1}, {3, 6, 2}, {6, 10, 1}}},
		{"split at the low end only", []run{{0, 10, 1}}, 0, 6, 1, []run{{0, 6, 2}, {6, 10, 1}}},
		{"split at the high end only", []run{{0, 10, 1}}, 4, 10, 1, []run{{0, 4, 1}, {4, 10, 2}}},
		{"gaps start from zero", []run{{2, 4, 1}, {6, 8, 2}}, 0, 10, 1,
			[]run{{0, 2, 1}, {2, 4, 2}, {4, 6, 1}, {6, 8, 3}, {8, 10, 1}}},
		{"zero-count run dropped", []run{{0, 4, 1}}, 0, 4, -1, nil},
		{"zero-count middle dropped", []run{{0, 10, 1}}, 3, 6, -1, []run{{0, 3, 1}, {6, 10, 1}}},
		{"decrement re-merges neighbours", []run{{0, 3, 1}, {3, 6, 2}, {6, 10, 1}}, 3, 6, -1, []run{{0, 10, 1}}},
		{"spans several runs", []run{{0, 2, 1}, {2, 5, 3}, {7, 9, 1}}, 1, 8, 1,
			[]run{{0, 1, 1}, {1, 2, 2}, {2, 5, 4}, {5, 7, 1}, {7, 8, 2}, {8, 9, 1}}},
		{"before everything", []run{{5, 9, 1}}, 0, 2, 1, []run{{0, 2, 1}, {5, 9, 1}}},
		{"after everything", []run{{5, 9, 1}}, 12, 14, 2, []run{{5, 9, 1}, {12, 14, 2}}},
	}
	for _, tc := range cases {
		in := append([]run(nil), tc.rs...)
		got := add(in, tc.lo, tc.hi, tc.d)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: add(%v, %d, %d, %+d) = %v, want %v", tc.name, tc.rs, tc.lo, tc.hi, tc.d, got, tc.want)
		}
		if !reflect.DeepEqual(in, append([]run(nil), tc.rs...)) {
			t.Errorf("%s: add modified its input: %v", tc.name, in)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("decrementing an uncovered page did not panic")
		}
	}()
	add([]run{{0, 4, 1}}, 2, 6, -1)
}

func TestRunUncovered(t *testing.T) {
	rs := []run{{2, 4, 1}, {6, 8, 1}}
	cases := []struct {
		lo, hi int
		want   []run
	}{
		{0, 10, []run{{0, 2, 1}, {4, 6, 1}, {8, 10, 1}}},
		{2, 8, []run{{4, 6, 1}}},
		{3, 7, []run{{4, 6, 1}}},
		{2, 4, nil},
		{4, 6, []run{{4, 6, 1}}},
		{9, 12, []run{{9, 12, 1}}},
		{5, 5, nil},
	}
	for _, tc := range cases {
		if got := uncovered(rs, tc.lo, tc.hi); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("uncovered(%v, %d, %d) = %v, want %v", rs, tc.lo, tc.hi, got, tc.want)
		}
	}
	if got := span(rs); got != 4 {
		t.Errorf("span(%v) = %d, want 4", rs, got)
	}
}

// The reference model: one entry per page, and every answer re-derived
// from scratch on every question. It is slow and obviously right, which
// is its whole job.
type modelRegion struct {
	r        *Region
	name     string // as the host's report names it
	kind     Kind
	pages    int
	faults   uint64
	released bool
}

type modelSpace struct {
	s       *Space
	name    string
	dirty   map[*modelRegion][]bool // per mapped region, per page: split by this space
	private map[Kind]int            // anonymous pages only
}

type model struct {
	regions   []*modelRegion
	spaces    []*modelSpace // live, in creation order
	highWater int
	faults    map[Kind]int64
}

func (m *model) sharers(r *modelRegion) (n int) {
	for _, s := range m.spaces {
		if s.dirty[r] != nil {
			n++
		}
	}
	return n
}

// referents returns how many spaces still reference page p's base frame.
func (m *model) referents(r *modelRegion, p int) (n int) {
	for _, s := range m.spaces {
		if d := s.dirty[r]; d != nil && !d[p] {
			n++
		}
	}
	return n
}

func (s *modelSpace) privatePages() (n int) {
	for _, k := range s.private {
		n += k
	}
	for _, d := range s.dirty {
		for _, split := range d {
			if split {
				n++ // a CoW copy
			}
		}
	}
	return n
}

func (m *model) used() (n int) {
	for _, r := range m.regions {
		for p := 0; p < r.pages; p++ {
			if m.referents(r, p) > 0 {
				n++
			}
		}
	}
	for _, s := range m.spaces {
		n += s.privatePages()
	}
	return n
}

// live reports whether the host must still track r: its owner has not
// released it, or some space maps it.
func (m *model) live(r *modelRegion) bool { return !r.released || m.sharers(r) > 0 }

// check compares every observable of the host against the model.
func (m *model) check(t *testing.T, h *Host, reg *metrics.Registry, step string) {
	t.Helper()
	var live, tracked []string
	for _, r := range m.regions {
		if m.live(r) {
			live = append(live, r.name)
		}
	}
	h.mu.Lock()
	for _, r := range bySeq(h.regions) {
		tracked = append(tracked, r.name)
	}
	h.mu.Unlock()
	if !slices.Equal(tracked, live) {
		t.Fatalf("%s: host tracks regions %v, model holds or maps %v", step, tracked, live)
	}
	used := m.used()
	m.highWater = max(m.highWater, used)
	if got := h.Used(); got != uint64(used)*PageSize {
		t.Fatalf("%s: Used = %d pages, model %d", step, got/PageSize, used)
	}
	rep := h.Report()
	if got := rep.HighWaterBytes; got != uint64(m.highWater)*PageSize {
		t.Fatalf("%s: high water = %d pages, model %d", step, got/PageSize, m.highWater)
	}
	spaces := map[string]SpaceReport{}
	for _, sr := range rep.Spaces {
		spaces[sr.Name] = sr
	}
	regions := map[string]RegionLineage{}
	for _, l := range rep.Regions {
		regions[l.Region] = l
	}
	rssSum := 0
	for _, s := range m.spaces {
		rss, uss, pss := s.privatePages(), s.privatePages(), float64(s.privatePages())*PageSize
		for r, d := range s.dirty {
			var want []int
			for p, split := range d {
				if split {
					want = append(want, p)
					continue
				}
				n := m.referents(r, p)
				rss++
				pss += PageSize / float64(n)
				if n == 1 {
					uss++
				}
			}
			if got := s.s.DirtiedPagesIn(r.r); !slices.Equal(got, want) {
				t.Fatalf("%s: %s DirtiedPagesIn(%s) = %v, model %v", step, s.name, r.name, got, want)
			}
		}
		rssSum += rss
		if got := s.s.RSS(); got != uint64(rss)*PageSize {
			t.Fatalf("%s: %s RSS = %d pages, model %d", step, s.name, got/PageSize, rss)
		}
		if got := s.s.USS(); got != uint64(uss)*PageSize {
			t.Fatalf("%s: %s USS = %d pages, model %d", step, s.name, got/PageSize, uss)
		}
		if got := s.s.PSS(); math.Abs(got-pss) > 1e-3 {
			t.Fatalf("%s: %s PSS = %.6f, model %.6f", step, s.name, got, pss)
		}
		var byKind float64
		for _, v := range spaces[s.name].ByKind {
			byKind += v
		}
		if math.Abs(byKind-pss) > 1e-3 {
			t.Fatalf("%s: %s report ByKind sums to %.6f, model PSS %.6f", step, s.name, byKind, pss)
		}
	}
	for _, r := range m.regions {
		want := RegionLineage{Region: r.name, Kind: r.kind, Pages: r.pages, Sharers: m.sharers(r), Faults: r.faults}
		if want.Sharers > 0 {
			for p := 0; p < r.pages; p++ {
				n := m.referents(r, p)
				switch n {
				case want.Sharers:
					want.SharedPages++
				case 0:
					want.ReclaimedPages++
				default:
					want.PartialPages++
				}
				want.SplitCopies += want.Sharers - n
			}
			want.BaseResidentPages = want.SharedPages + want.PartialPages
			if r.pages > 0 {
				want.SharedFraction = float64(want.BaseResidentPages) / float64(r.pages)
			}
		}
		// The report leaves out released regions nothing maps, and
		// dormant regions that never faulted.
		reported := m.live(r) && (want.Sharers > 0 || want.Faults > 0)
		if got, ok := regions[r.name]; ok != reported || ok && got != want {
			t.Fatalf("%s: lineage (reported %v)\n got  %+v\n want %+v", step, ok, got, want)
		}
	}
	if !rep.PSSPageExact {
		t.Fatalf("%s: report not page-exact: pss sum %.3f, used %d", step, rep.PSSSumBytes, rep.UsedBytes)
	}
	if rep.RSSSumBytes != uint64(rssSum)*PageSize || len(rep.Spaces) != len(m.spaces) {
		t.Fatalf("%s: report rss sum %d pages over %d spaces, model %d over %d",
			step, rep.RSSSumBytes/PageSize, len(rep.Spaces), rssSum, len(m.spaces))
	}
	if rss, usedBytes := h.SharingTotals(); rss != rep.RSSSumBytes || usedBytes != rep.UsedBytes {
		t.Fatalf("%s: SharingTotals = (%d, %d), report (%d, %d)", step, rss, usedBytes, rep.RSSSumBytes, rep.UsedBytes)
	}
	var total int64
	for _, k := range Kinds() {
		total += m.faults[k]
		if got := reg.Counter(metrics.Name("mem_cow_faults_by_kind", "kind", string(k))).Value(); got != m.faults[k] {
			t.Fatalf("%s: mem_cow_faults_by_kind{%s} = %d, model %d", step, k, got, m.faults[k])
		}
	}
	if got := reg.Counter("mem_cow_faults_total").Value(); got != total {
		t.Fatalf("%s: mem_cow_faults_total = %d, model %d", step, got, total)
	}
}

// TestAgainstPerPageModel drives a host and the per-page reference
// through the same seeded random operations and compares every
// observable after every step.
func TestAgainstPerPageModel(t *testing.T) {
	seeds, steps := 120, 200
	if testing.Short() {
		seeds = 30
	}
	kinds := Kinds()
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		h := NewHost(1<<30, 0.6)
		reg := metrics.NewRegistry()
		h.Instrument(reg)
		m := &model{faults: map[Kind]int64{}}
		newRegion := func() {
			kind, pages := kinds[rng.Intn(len(kinds))], 1+rng.Intn(40)
			name := fmt.Sprintf("img#%d", len(m.regions)+1)
			m.regions = append(m.regions, &modelRegion{r: h.NewRegion("img", kind, pages), name: name, kind: kind, pages: pages})
		}
		for i := 0; i < 4; i++ {
			newRegion()
		}
		released := 0
		// dirty books pages [lo,hi) of r in the model and returns the
		// faults the host must report.
		dirty := func(s *modelSpace, r *modelRegion, lo, hi int) (faults int) {
			for p := lo; p < hi; p++ {
				if !s.dirty[r][p] {
					s.dirty[r][p] = true
					faults++
				}
			}
			r.faults += uint64(faults)
			m.faults[r.kind] += int64(faults)
			return faults
		}
		for step := 0; step < steps; step++ {
			var s *modelSpace
			var r *modelRegion // a region s maps, when it maps any
			if len(m.spaces) > 0 {
				s = m.spaces[rng.Intn(len(m.spaces))]
				for _, cand := range m.regions {
					if s.dirty[cand] != nil && (r == nil || rng.Intn(2) == 0) {
						r = cand
					}
				}
			}
			op := rng.Intn(10)
			desc := fmt.Sprintf("seed %d step %d op %d", seed, step, op)
			switch {
			case s == nil || (op == 0 && len(m.spaces) < 6):
				name := fmt.Sprintf("vm-%d-%d", seed, step)
				m.spaces = append(m.spaces, &modelSpace{s: h.NewSpace(name), name: name, dirty: map[*modelRegion][]bool{}, private: map[Kind]int{}})
			case op == 1 && len(m.regions) < 8+released:
				newRegion()
			case op == 8 && rng.Intn(2) == 0:
				// The owner lets go of a region, mapped or not. Spaces
				// may map it again afterwards, as an in-flight restore
				// of a replaced image does.
				if cand := m.regions[rng.Intn(len(m.regions))]; !cand.released {
					cand.r.Release()
					cand.released = true
					released++
				}
			case op <= 3 || r == nil:
				cand := m.regions[rng.Intn(len(m.regions))]
				if s.dirty[cand] == nil {
					s.s.MapRegion(cand.r)
					s.dirty[cand] = make([]bool, cand.pages)
				}
			case op == 4:
				n := rng.Intn(r.pages + 1)
				if got, want := s.s.DirtyRange(r.r, 0, n), dirty(s, r, 0, n); got != want {
					t.Fatalf("%s: DirtyRange(0,%d) = %d faults, model %d", desc, n, got, want)
				}
			case op == 5:
				p := rng.Intn(r.pages)
				if got, want := s.s.DirtyRange(r.r, p, p+1), dirty(s, r, p, p+1); got != want {
					t.Fatalf("%s: DirtyRange(%d,%d) = %d faults, model %d", desc, p, p+1, got, want)
				}
			case op == 6:
				lo := rng.Intn(r.pages + 1)
				hi := lo + rng.Intn(r.pages+1-lo)
				if got, want := s.s.DirtyRange(r.r, lo, hi), dirty(s, r, lo, hi); got != want {
					t.Fatalf("%s: DirtyRange(%d,%d) = %d faults, model %d", desc, lo, hi, got, want)
				}
			case op == 7:
				kind, n := kinds[rng.Intn(len(kinds))], rng.Intn(30)
				s.s.AllocPrivate(kind, n)
				s.private[kind] += n
			default:
				s.s.Free()
				for i, live := range m.spaces {
					if live == s {
						m.spaces = append(m.spaces[:i], m.spaces[i+1:]...)
						break
					}
				}
			}
			m.check(t, h, reg, desc)
		}
		for len(m.spaces) > 0 {
			m.spaces[0].s.Free()
			m.spaces = m.spaces[1:]
			m.check(t, h, reg, fmt.Sprintf("seed %d teardown", seed))
		}
		if h.Used() != 0 {
			t.Fatalf("seed %d: %d bytes used after every space was freed", seed, h.Used())
		}
		for _, r := range m.regions {
			if !r.released {
				r.r.Release()
				r.released = true
			}
		}
		m.check(t, h, reg, fmt.Sprintf("seed %d release", seed))
		if len(h.regions) != 0 {
			t.Fatalf("seed %d: host tracks %d regions after every one was released and unmapped", seed, len(h.regions))
		}
	}
}
