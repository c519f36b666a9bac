package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Exposition: the registry renders to the Prometheus text format
// (WritePrometheus) and to a JSON snapshot (Snapshot/WriteJSON). Both are
// deterministic for a given set of metric values: families sort by name,
// metrics within a family sort by their label signature, and JSON maps
// marshal with sorted keys. Rendering walks the one metric index under
// the registry read lock and reads values atomically, so a scrape waits
// only on registration, never on the hot path.

// HistogramValue is the JSON snapshot of one histogram.
type HistogramValue struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	// Uppers are the bucket upper bounds; Counts has one extra entry for
	// the +Inf overflow bucket. Counts are per-bucket (not cumulative).
	Uppers []float64 `json:"uppers"`
	Counts []uint64  `json:"counts"`
}

// Snapshot is a point-in-time copy of every metric, keyed by the metric's
// canonical identity (name plus sorted label pairs). Values are read
// atomically; the snapshot as a whole is not a single consistent cut
// across metrics, which is the usual exposition contract.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot captures the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramValue),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			s.Counters[m.id] = m.Value()
		case *Gauge:
			s.Gauges[m.id] = m.Value()
		case *Histogram:
			hv := HistogramValue{
				Count:  m.Count(),
				Sum:    m.Sum(),
				Uppers: append([]float64(nil), m.uppers...),
				Counts: make([]uint64, len(m.counts)),
			}
			for i := range m.counts {
				hv.Counts[i] = m.counts[i].Load()
			}
			s.Histograms[m.id] = hv
		}
	}
	return s
}

// WriteJSON writes an indented JSON snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// row is one pre-rendered sample line plus the key it sorts under: the
// metric identity for counters and gauges, the histogram identity plus a
// bucket ordinal for histogram series (so buckets stay in increasing le
// order instead of sorting lexicographically).
type row struct {
	key  string
	line string
}

// family groups one metric name's samples for exposition.
type family struct {
	name string
	kind kind
	help string
	rows []row
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers per family, samples
// sorted by identity.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make(map[string]*family)
	get := func(name string, k kind) *family {
		f, ok := fams[name]
		if !ok {
			f = &family{name: name, kind: k, help: r.help[name]}
			fams[name] = f
		}
		return f
	}
	for _, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			f := get(m.name, kindCounter)
			f.rows = append(f.rows, row{m.id, m.id + " " + strconv.FormatUint(m.Value(), 10)})
		case *Gauge:
			f := get(m.name, kindGauge)
			f.rows = append(f.rows, row{m.id, m.id + " " + formatFloat(m.Value())})
		case *Histogram:
			f := get(m.name, kindHistogram)
			f.rows = append(f.rows, m.renderRows()...)
		}
	}
	r.mu.RUnlock()

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	var buf bytes.Buffer
	for _, name := range names {
		f := fams[name]
		if f.help != "" {
			buf.WriteString("# HELP " + name + " " + f.help + "\n")
		}
		buf.WriteString("# TYPE " + name + " " + f.kind.String() + "\n")
		sort.Slice(f.rows, func(i, j int) bool { return f.rows[i].key < f.rows[j].key })
		for _, row := range f.rows {
			buf.WriteString(row.line)
			buf.WriteByte('\n')
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// renderRows renders one histogram's cumulative _bucket series plus _sum
// and _count, merging the le label into any existing labels. Bucket rows
// sort under an ordinal suffix so they expose in increasing le order.
func (h *Histogram) renderRows() []row {
	rows := make([]row, 0, len(h.counts)+2)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.uppers) {
			le = formatFloat(h.uppers[i])
		}
		line := metricID(h.name+"_bucket", append(append([]string(nil), h.labels...), "le", le)) +
			" " + strconv.FormatUint(cum, 10)
		rows = append(rows, row{fmt.Sprintf("%s\x00%04d", h.id, i), line})
	}
	rows = append(rows,
		row{h.id + "\x00sum", metricID(h.name+"_sum", h.labels) + " " + formatFloat(h.Sum())},
		row{h.id + "\x00cnt", metricID(h.name+"_count", h.labels) + " " + strconv.FormatUint(h.Count(), 10)})
	return rows
}

// WriteFile writes a snapshot of r to path: JSON when the path ends in
// .json, Prometheus text otherwise. This is the file-dump twin of the
// /metrics and /metrics.json HTTP endpoints, used by the -metrics flags.
func WriteFile(r *Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
