package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one fit or session
// share Trace; Parent is the ID of the span that caused this one (0 for
// a root). Times are nanoseconds since the tracer started.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Every span adds its
// duration to the per-name aggregate; raw spans are kept only where the
// caller asks (all session spans, the first proposals of a walk). A nil
// tracer records nothing, which is how untraced runs share the code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	nextID int
	spans  []span
	durs   map[string][]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]time.Duration{}}
}

// newID reserves a span ID so children can name their parent before
// the parent's own end time is known.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a raw span under a fresh ID and returns its duration.
func (t *tracer) record(trace string, parent int, layer, name string, start, end time.Time) time.Duration {
	t.recordAs(t.newID(), trace, parent, layer, name, start, end)
	return end.Sub(start)
}

// recordAs stores a raw span under a reserved ID; id 0 aggregates the
// duration without keeping the span.
func (t *tracer) recordAs(id int, trace string, parent int, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs[name] = append(t.durs[name], end.Sub(start))
	if id != 0 {
		t.spans = append(t.spans, span{
			Trace: trace, ID: id, Parent: parent, Layer: layer, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		})
	}
}

// sample returns name's durations converted by unit (millis, micros...).
func (t *tracer) sample(name string, unit func(time.Duration) float64) sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(sample, len(t.durs[name]))
	for i, d := range t.durs[name] {
		out[i] = unit(d)
	}
	return out
}

// aggregate is the per-name summary written next to the raw spans.
type aggregate struct {
	Count int   `json:"count"`
	Sum   int64 `json:"sum_ns"`
	P50   int64 `json:"p50_ns"`
	P90   int64 `json:"p90_ns"`
}

type traceFile struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Aggregates map[string]aggregate `json:"aggregates"`
	Spans      []span               `json:"spans"`
}

// write dumps the trace to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := traceFile{Workload: workload, Seed: seed, Aggregates: map[string]aggregate{}, Spans: t.spans}
	for name, durs := range t.durs {
		v := make([]float64, len(durs))
		var sum int64
		for i, d := range durs {
			v[i] = float64(d)
			sum += int64(d)
		}
		sort.Float64s(v)
		out.Aggregates[name] = aggregate{Count: len(v), Sum: sum, P50: int64(quantile(v, 0.5)), P90: int64(quantile(v, 0.9))}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
