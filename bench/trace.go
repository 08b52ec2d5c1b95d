package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around its own
// call into the system, or around its own observation of a completion.
// Spans of one operation share ID (the sampled event's ordinal, the
// request number, or the cycle number); Parent names the span of the
// same ID that caused this one ("" for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	ID     uint64 `json:"id"`
}

// counterSample is one 100 Hz reading of the queue depths between
// layers, kept beside the spans so a slow span can be set against the
// backlog it waited in.
type counterSample struct {
	T         int64 `json:"t_ns"`
	Ready     int   `json:"ready"`
	Backup    int   `json:"backup"`
	Outbox    int   `json:"outbox_max"`
	MainQueue int   `json:"main_queue"`
	Pending   int   `json:"pending_requests"`
}

// spanBuf collects the spans of one goroutine without locking. A nil
// buffer records nothing, which is how tracing is switched off.
type spanBuf struct{ spans []span }

func (b *spanBuf) record(name, parent string, id uint64, start, end int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
}

// tracer owns the per-goroutine buffers of one traced run.
type tracer struct {
	mu       sync.Mutex
	bufs     []*spanBuf
	counters []counterSample
}

// buf returns a fresh buffer for one goroutine; nil when t is nil.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// all returns every recorded span. Call once the recording goroutines
// have stopped.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// durationsMs returns the durations of the named spans, in ms.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

type traceFile struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Spans    []span          `json:"spans"`
	Counters []counterSample `json:"counters"`
}

// write stores the run's spans and counter samples under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	err = json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Spans: t.all(), Counters: t.counters})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return path, nil
}

// spanCostNs measures what recording one span costs, so a traced run
// can report the share of its CPU time that went into tracing.
func spanCostNs() float64 {
	const n = 200000
	b := &spanBuf{}
	start := time.Now()
	for i := 0; i < n; i++ {
		now := time.Since(start).Nanoseconds()
		b.record("calibrate", "", uint64(i), now, now)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
