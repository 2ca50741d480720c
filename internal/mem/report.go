package mem

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// SpaceReport is one row of the smem-style per-space table: how one
// microVM's (or container's) memory looks to the host. All sizes are
// bytes; definitions match smem exactly (see docs/memory.md).
type SpaceReport struct {
	Name string `json:"name"`
	// RSS counts every resident page the space maps (shared or not).
	RSSBytes uint64 `json:"rss_bytes"`
	// PSS counts private pages fully and each shared frame 1/N.
	PSSBytes float64 `json:"pss_bytes"`
	// USS counts only pages that would be freed if the space exited.
	USSBytes uint64 `json:"uss_bytes"`
	// Shared is the resident shared-frame portion of RSS; Private is
	// the rest (anonymous allocations plus CoW copies).
	SharedBytes  uint64 `json:"shared_bytes"`
	PrivateBytes uint64 `json:"private_bytes"`
	// ByKind decomposes PSS by page content (the Figure 12 factors).
	ByKind map[Kind]float64 `json:"by_kind"`
}

// RegionLineage is the page lineage of one shared region: for every
// page of a snapshot image, is its base frame still shared by all
// mappers, split by some (CoW copies exist but the base frame is still
// resident), or reclaimed because every sharer split it.
type RegionLineage struct {
	Region  string `json:"region"`
	Kind    Kind   `json:"kind"`
	Pages   int    `json:"pages"`
	Sharers int    `json:"sharers"`
	// SharedPages no sharer has split; PartialPages some (not all)
	// sharers split; ReclaimedPages every sharer split, so the base
	// frame was returned to the page cache.
	SharedPages    int `json:"shared_pages"`
	PartialPages   int `json:"partial_pages"`
	ReclaimedPages int `json:"reclaimed_pages"`
	// SplitCopies is the total number of private CoW copies live across
	// all sharers; Faults the region's lifetime CoW fault count.
	SplitCopies int    `json:"split_copies"`
	Faults      uint64 `json:"faults"`
	// BaseResidentPages = SharedPages + PartialPages (frames the image
	// still holds in memory); SharedFraction is that over Pages.
	BaseResidentPages int     `json:"base_resident_pages"`
	SharedFraction    float64 `json:"shared_fraction"`
}

// Lineage returns the region's current page lineage.
func (r *Region) Lineage() RegionLineage {
	r.host.mu.Lock()
	defer r.host.mu.Unlock()
	return r.lineageLocked()
}

func (r *Region) lineageLocked() RegionLineage {
	l := RegionLineage{
		Region:  r.name,
		Kind:    r.kind,
		Pages:   r.pages,
		Sharers: r.sharers,
		Faults:  r.faults,
	}
	if r.sharers == 0 {
		// Dormant: no frames resident, nothing shared.
		return l
	}
	for _, x := range r.split {
		l.SplitCopies += x.n * (x.hi - x.lo)
		if x.n == r.sharers {
			l.ReclaimedPages += x.hi - x.lo
		} else {
			l.PartialPages += x.hi - x.lo
		}
	}
	l.SharedPages = r.pages - l.PartialPages - l.ReclaimedPages
	l.BaseResidentPages = l.SharedPages + l.PartialPages
	if r.pages > 0 {
		l.SharedFraction = float64(l.BaseResidentPages) / float64(r.pages)
	}
	return l
}

// HostReport is a point-in-time fleet memory report: the smem-style
// per-space table, per-region page lineage, and the host-level
// invariants the telemetry layer asserts (PSS conservation, sharing
// efficiency, swap-pressure watermarks).
type HostReport struct {
	Spaces  []SpaceReport   `json:"spaces"`
	Regions []RegionLineage `json:"regions"`

	CapacityBytes      uint64 `json:"capacity_bytes"`
	UsedBytes          uint64 `json:"used_bytes"`
	PrivateBytes       uint64 `json:"private_bytes"`
	SharedBytes        uint64 `json:"shared_bytes"`
	SwapThresholdBytes uint64 `json:"swap_threshold_bytes"`
	SwappedBytes       uint64 `json:"swapped_bytes"`
	HighWaterBytes     uint64 `json:"high_water_bytes"`
	Swapping           bool   `json:"swapping"`

	// PSSSumBytes is the sum of every space's PSS. PSS conservation
	// says it equals UsedBytes page-exactly: private pages count once,
	// and a resident shared frame's 1/N shares sum to one across its N
	// referents. PSSPageExact asserts that, absorbing float error.
	PSSSumBytes  float64 `json:"pss_sum_bytes"`
	PSSPageExact bool    `json:"pss_page_exact"`
	RSSSumBytes  uint64  `json:"rss_sum_bytes"`
	// SharingEfficiency = RSSSum / Used: how many bytes of apparent
	// per-VM memory each resident byte serves (1.0 = no sharing; the
	// fleet-wide win of the paper's shared post-JIT snapshot).
	SharingEfficiency float64 `json:"sharing_efficiency"`
}

// Report computes the fleet memory report. The whole report is derived
// under one lock acquisition, so its invariants hold even while spaces
// are concurrently created, dirtied, and freed. Dormant regions that
// never faulted are omitted.
func (h *Host) Report() HostReport {
	h.mu.Lock()
	defer h.mu.Unlock()

	rep := HostReport{
		CapacityBytes:      h.capacity,
		UsedBytes:          h.usedPages * PageSize,
		PrivateBytes:       h.privatePages * PageSize,
		SharedBytes:        (h.usedPages - h.privatePages) * PageSize,
		SwapThresholdBytes: uint64(float64(h.capacity) * h.swappiness),
		SwappedBytes:       h.swappedPagesLocked() * PageSize,
		HighWaterBytes:     h.maxUsedPages * PageSize,
	}
	rep.Swapping = rep.UsedBytes > rep.SwapThresholdBytes

	for _, s := range h.spacesLocked() {
		sr := SpaceReport{
			Name:         s.name,
			RSSBytes:     s.rssPagesLocked() * PageSize,
			PSSBytes:     s.pssLocked(),
			USSBytes:     s.ussLocked(),
			PrivateBytes: s.privatePagesLocked() * PageSize,
			ByKind:       s.breakdownLocked(),
		}
		sr.SharedBytes = sr.RSSBytes - sr.PrivateBytes
		rep.PSSSumBytes += sr.PSSBytes
		rep.RSSSumBytes += sr.RSSBytes
		rep.Spaces = append(rep.Spaces, sr)
	}

	for _, r := range h.regions {
		if r.sharers > 0 || r.faults > 0 {
			rep.Regions = append(rep.Regions, r.lineageLocked())
		}
	}

	rep.PSSPageExact = uint64(math.Round(rep.PSSSumBytes/PageSize)) == h.usedPages
	if rep.UsedBytes > 0 {
		rep.SharingEfficiency = float64(rep.RSSSumBytes) / float64(rep.UsedBytes)
	}
	return rep
}

// SharingTotals returns the numerator and denominator of
// SharingEfficiency — the sum of every live space's RSS and the bytes
// resident — from two running totals the host keeps as it books each
// operation, so a per-request probe need not derive a whole Report.
func (h *Host) SharingTotals() (rssSumBytes, usedBytes uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rssPages * PageSize, h.usedPages * PageSize
}

// WriteText renders the report as the smem-style table plus the
// lineage table (the format GET /memory and fwcli -watch print).
func (rep HostReport) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "# host: used %s / %s (swap at %s, high water %s",
		humanBytes(float64(rep.UsedBytes)), humanBytes(float64(rep.CapacityBytes)),
		humanBytes(float64(rep.SwapThresholdBytes)), humanBytes(float64(rep.HighWaterBytes)))
	if rep.Swapping {
		fmt.Fprintf(w, ", SWAPPING %s", humanBytes(float64(rep.SwappedBytes)))
	}
	fmt.Fprintln(w, ")")
	exact := "page-exact"
	if !rep.PSSPageExact {
		exact = "NOT page-exact"
	}
	fmt.Fprintf(w, "# sharing efficiency %.2fx (rss sum %s over %s resident); pss sum %s, %s\n",
		rep.SharingEfficiency, humanBytes(float64(rep.RSSSumBytes)),
		humanBytes(float64(rep.UsedBytes)), humanBytes(rep.PSSSumBytes), exact)

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "SPACE\tRSS\tPSS\tUSS\tSHARED\tPRIVATE")
	for _, s := range rep.Spaces {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", s.Name,
			humanBytes(float64(s.RSSBytes)), humanBytes(s.PSSBytes),
			humanBytes(float64(s.USSBytes)), humanBytes(float64(s.SharedBytes)),
			humanBytes(float64(s.PrivateBytes)))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(rep.Regions) == 0 {
		return nil
	}
	fmt.Fprintln(w, "# snapshot page lineage")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "REGION\tKIND\tPAGES\tSHARERS\tSHARED\tPARTIAL\tRECLAIMED\tCOPIES\tFAULTS\tRESIDENT")
	for _, l := range rep.Regions {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f%%\n",
			l.Region, l.Kind, l.Pages, l.Sharers, l.SharedPages, l.PartialPages,
			l.ReclaimedPages, l.SplitCopies, l.Faults, l.SharedFraction*100)
	}
	return tw.Flush()
}

// humanBytes renders a byte quantity with a binary suffix, one decimal.
func humanBytes(v float64) string {
	abs := math.Abs(v)
	switch {
	case abs >= 1<<30:
		return fmt.Sprintf("%.1fG", v/(1<<30))
	case abs >= 1<<20:
		return fmt.Sprintf("%.1fM", v/(1<<20))
	case abs >= 1<<10:
		return fmt.Sprintf("%.1fK", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
