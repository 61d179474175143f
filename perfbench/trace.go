package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one checkpoint, run or query share a Trace
// id; Parent is the id of the span that made the call, 0 for a root.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r *recorder
	s span
}

// begin starts a span under parent (0 for a root) in the given trace.
func (r *recorder) begin(name string, parent, trace int64) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	id := int64(len(r.spans)) + 1
	// Reserve the slot so ids stay dense and ordered by start.
	r.spans = append(r.spans, span{ID: id})
	r.mu.Unlock()
	return &openSpan{r: r, s: span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Since(r.t0)}}
}

// id is the span's id, usable as a child's parent; 0 when not tracing.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end records the span.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.r.t0)
	o.r.mu.Lock()
	o.r.spans[o.s.ID-1] = o.s
	o.r.mu.Unlock()
}

// layerTimes sums, per trace, the self time of every span with the
// given name: its duration minus what its child spans cover.
func (r *recorder) layerTimes(name string) map[int64]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][]interval{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[int64]time.Duration{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Trace] += selfTime(interval{s.Start, s.End}, children[s.ID])
		}
	}
	return out
}

// medianLayerMs is the median over traces fromTrace and up of a layer's
// per-trace self time, in milliseconds; 0 when no such trace ran it.
func (r *recorder) medianLayerMs(name string, fromTrace int64) float64 {
	var ms []float64
	for trace, d := range r.layerTimes(name) {
		if trace >= fromTrace {
			ms = append(ms, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(ms)
	return median(ms)
}

// durationsUs lists every span's duration with the given name, in µs.
func (r *recorder) durationsUs(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(time.Microsecond))
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
