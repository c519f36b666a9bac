package telemetry

// Row publishes one series of a stats type S. Exactly one of Count and
// Level is set: Count reads a cumulative stat and feeds a counter, Level
// reads an instantaneous value and feeds a gauge. A collector is a table
// of rows beside the struct it reads; adding a series is adding a row.
type Row[S any] struct {
	Name   string
	Help   string   // HELP text of the family; "" emits none
	Labels []string // key, value pairs appended after the mirror's own
	Count  func(*S) uint64
	Level  func(*S) float64
}

// Mirror publishes an S into a Registry through a row table — the one
// place that decides how a cumulative stat becomes a series. Handles are
// created up front; Sync is allocation-free and runs on the goroutine
// that owns the S, at a boundary where it is consistent, so a scrape
// reads only the registry's atomics and never the source.
type Mirror[S any] struct {
	reg    *Registry
	rows   []Row[S]
	labels []string
	series []series
}

type series struct {
	c    *Counter // nil for a Level row
	g    *Gauge
	prev uint64 // cumulative value at the previous Sync
}

// NewMirror registers every row's series, labelled with labels followed
// by the row's own, and returns the mirror. Counters start from a zero
// baseline: the first Sync publishes the source's whole history unless
// Baseline ran first.
func NewMirror[S any](reg *Registry, rows []Row[S], labels ...string) *Mirror[S] {
	m := &Mirror[S]{reg: reg, rows: rows, labels: labels, series: make([]series, len(rows))}
	for i, row := range rows {
		if row.Help != "" {
			reg.Help(row.Name, row.Help)
		}
		if row.Count != nil {
			m.series[i].c = reg.Counter(row.Name, m.rowLabels(row)...)
		} else {
			m.series[i].g = reg.Gauge(row.Name, m.rowLabels(row)...)
		}
	}
	return m
}

func (m *Mirror[S]) rowLabels(row Row[S]) []string {
	return append(m.labels[:len(m.labels):len(m.labels)], row.Labels...)
}

// Sync publishes s: every counter advances by the growth of its stat
// since the previous Sync and every gauge is overwritten. A stat that
// went backwards (the source restarted) adds nothing and becomes the
// new reference, so a series never decreases.
func (m *Mirror[S]) Sync(s *S) {
	for i := range m.series {
		se := &m.series[i]
		if se.c == nil {
			se.g.Set(m.rows[i].Level(s))
			continue
		}
		now := m.rows[i].Count(s)
		if now > se.prev {
			se.c.Add(now - se.prev)
		}
		se.prev = now
	}
}

// Baseline takes s's cumulative stats as already published, so a mirror
// attached to a source mid-life counts from now on instead of replaying
// its history. Gauges are untouched; Sync afterwards to set them.
func (m *Mirror[S]) Baseline(s *S) {
	for i := range m.series {
		if m.series[i].c != nil {
			m.series[i].prev = m.rows[i].Count(s)
		}
	}
}

// Detach removes this mirror's series, and only them, from exposition —
// for labelled per-entity mirrors whose entity is gone.
func (m *Mirror[S]) Detach() {
	for _, row := range m.rows {
		m.reg.Unregister(row.Name, m.rowLabels(row)...)
	}
}
