package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the driver from
// outside the layer. Times are nanoseconds since the tracer was made;
// Parent is the index of the enclosing span (-1 at top level) and Op the
// index of the measured op the span belongs to (-1 during set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end are then no-ops, so workloads call them
// unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), op: -1}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanIndex answers the questions the per-layer metrics ask of a
// finished trace: every duration recorded under a name, and a span's
// self time (its duration minus what its children cover).
type spanIndex struct {
	byName map[string][]float64 // durations, ns, in recording order
	self   map[string]float64   // summed self time per name, ns
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]float64{}, self: map[string]float64{}}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		ix.byName[s.Name] = append(ix.byName[s.Name], float64(d))
		ix.self[s.Name] += float64(d - child[i])
	}
	return ix
}

// total is the summed duration of every span with the given name, ns.
func (ix spanIndex) total(name string) float64 { return sum(ix.byName[name]) }

// writeSpans writes one JSON object per line: the span fields plus the
// workload name, so traces of several workloads can share a file.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Workload string `json:"workload"`
			span
		}{workload, s}
		if err = enc.Encode(rec); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
