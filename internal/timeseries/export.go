package timeseries

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// WriteCSV renders every series as one wide CSV timeline: the first
// column is ts_ns (virtual nanoseconds), one column per series in
// sorted name order, one row per distinct timestamp. A cell is empty
// when its series has no point at that instant; when a series was
// sampled twice at one instant the last value wins. The output is
// byte-stable: same series, same bytes — the determinism witness the
// memory-timeline experiment diffs across runs.
func (s *Sampler) WriteCSV(w io.Writer) error {
	return writeCSV(w, s.Snapshot())
}

func writeCSV(w io.Writer, series []SeriesSnapshot) error {
	// Row skeleton: the sorted union of every timestamp.
	tsSet := make(map[time.Duration]bool)
	for _, sr := range series {
		for _, p := range sr.Points {
			tsSet[p.TS] = true
		}
	}
	tss := make([]time.Duration, 0, len(tsSet))
	for ts := range tsSet {
		tss = append(tss, ts)
	}
	sort.Slice(tss, func(i, j int) bool { return tss[i] < tss[j] })

	cw := csv.NewWriter(w)
	header := make([]string, 0, len(series)+1)
	header = append(header, "ts_ns")
	for _, sr := range series {
		header = append(header, sr.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	// Per-series cursor: points are in ascending TS order.
	cursors := make([]int, len(series))
	row := make([]string, len(series)+1)
	for _, ts := range tss {
		row[0] = strconv.FormatInt(int64(ts), 10)
		for i, sr := range series {
			cell := ""
			for cursors[i] < len(sr.Points) && sr.Points[cursors[i]].TS <= ts {
				if sr.Points[cursors[i]].TS == ts {
					cell = formatFloat(sr.Points[cursors[i]].Value)
				}
				cursors[i]++
			}
			row[i+1] = cell
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatFloat renders a value compactly and deterministically:
// integers without a decimal point, everything else via strconv 'g'.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonSeries is the JSON export shape of one series.
type jsonSeries struct {
	Name   string      `json:"name"`
	Points [][2]string `json:"points"` // [ts_ns, value] pairs, stringly for stability
}

// WriteJSON renders every series as a JSON document:
//
//	{"series": [{"name": ..., "points": [["ts_ns","value"], ...]}, ...]}
//
// Values are rendered as strings with the same formatter as the CSV,
// so both exports are byte-stable and agree digit for digit.
func (s *Sampler) WriteJSON(w io.Writer) error {
	snap := s.Snapshot()
	out := struct {
		Series []jsonSeries `json:"series"`
	}{Series: make([]jsonSeries, 0, len(snap))}
	for _, sr := range snap {
		js := jsonSeries{Name: sr.Name, Points: make([][2]string, 0, len(sr.Points))}
		for _, p := range sr.Points {
			js.Points = append(js.Points, [2]string{
				strconv.FormatInt(int64(p.TS), 10), formatFloat(p.Value),
			})
		}
		out.Series = append(out.Series, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// WriteFormat dispatches between the two exports by name, mirroring
// metrics.WriteFormat so every surface accepts the same format names.
func (s *Sampler) WriteFormat(w io.Writer, format string) error {
	switch format {
	case "csv":
		return s.WriteCSV(w)
	case "json":
		return s.WriteJSON(w)
	default:
		return fmt.Errorf(`timeseries: unknown format %q (want "csv" or "json")`, format)
	}
}
