package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one operation share Op; Parent is the ID
// of the span that was open when this one started (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the recorder's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// SelfNs is the duration minus the part its child spans cover, filled
	// in when the trace is written.
	SelfNs int64 `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine: the staged driver and the in-process replay are sequential, so
// the open-span stack is the causal chain. A nil recorder records nothing,
// which is how the untraced reference replay shares the traced one's code.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans
	op    int
	last  int // index of the span closed most recently
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// beginOp starts a new operation; spans recorded until the next call share
// its identifier.
func (r *recorder) beginOp() {
	if r != nil {
		r.op++
	}
}

// time runs f inside a span and returns its duration. Durations are
// returned even when the recorder is nil so callers can time without
// tracing.
func (r *recorder) time(layer, name string, f func()) time.Duration {
	if r == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx + 1, Parent: parent, Op: r.op, Layer: layer, Name: name})
	r.open = append(r.open, idx)
	start := time.Now()
	f()
	end := time.Now()
	r.open = r.open[:len(r.open)-1]
	r.last = idx
	r.spans[idx].StartNs = start.Sub(r.t0).Nanoseconds()
	r.spans[idx].EndNs = end.Sub(r.t0).Nanoseconds()
	return end.Sub(start)
}

// renameLast renames the span closed most recently: some calls can only be
// attributed once they return (a shard is netflow- or mip-solved; a staged
// Lower is kept only if its IR matches the compiler's).
func (r *recorder) renameLast(layer, name string) {
	if r != nil && len(r.spans) > 0 {
		r.spans[r.last].Layer, r.spans[r.last].Name = layer, name
	}
}

// finish computes every span's self time.
func (r *recorder) finish() {
	for i := range r.spans {
		r.spans[i].SelfNs = r.spans[i].EndNs - r.spans[i].StartNs
	}
	for _, s := range r.spans {
		if s.Parent > 0 {
			r.spans[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
}

// perOp sums, per operation, the duration of the spans with the given
// name, in milliseconds, for the operations that have such a span.
func (r *recorder) perOp(name string) []float64 {
	byOp := map[int]float64{}
	var order []int
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if _, ok := byOp[s.Op]; !ok {
			order = append(order, s.Op)
		}
		byOp[s.Op] += float64(s.EndNs-s.StartNs) / 1e6
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = byOp[op]
	}
	return out
}

// selfByLayer totals self time per layer in milliseconds — the table the
// README's "how to read a trace" section walks through.
func (r *recorder) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.spans {
		out[s.Layer] += float64(s.SelfNs) / 1e6
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
