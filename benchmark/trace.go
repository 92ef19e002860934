package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one op share Op; a root span has Parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only.
type tracer struct {
	t0    time.Time
	ops   int
	spans []span
	total map[string]time.Duration // summed duration per span name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: make(map[string]time.Duration)}
}

// beginOp starts the next op's spans.
func (t *tracer) beginOp() { t.ops++ }

// open starts a span and returns its ID.
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.ops, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// close ends the span and returns its duration.
func (t *tracer) close(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	d := time.Duration(s.End - s.Start)
	t.total[s.Name] += d
	return d
}

// record adds a span whose start and end were taken elsewhere.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.ops, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.total[name] += end.Sub(start)
	return len(t.spans)
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) time.Duration {
	id := t.open(name, parent)
	f()
	return t.close(id)
}

// meanMS is the mean time per op spent in spans of the given name.
func (t *tracer) meanMS(name string) float64 {
	if t.ops == 0 {
		return 0
	}
	return ms(t.total[name]) / float64(t.ops)
}

// write computes each span's self time (its duration minus the time its
// children cover; children of one parent never overlap) and writes the spans
// as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - child[s.ID]
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
