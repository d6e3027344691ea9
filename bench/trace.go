package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" (tracing off, or the root).
type spanID int

// spanRec is one call, or one batch of calls, from the benchmark into a
// layer. Spans of one emulated flow (its StartFlow and its Wait) share Flow.
type spanRec struct {
	ID      spanID `json:"id"`
	Parent  spanID `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was made
	EndNs   int64  `json:"end_ns"`
	Calls   int    `json:"calls"`
	Flow    int    `json:"flow,omitempty"` // 1-based; 0 = not a per-flow span
	SelfNs  int64  `json:"self_ns"`
}

// tracer records spans in memory. With on == false every method returns at
// its first branch, so the untraced reps pay one predictable test per call
// site. It is safe for concurrent use: emulator clients record their own
// per-flow spans.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) start(parent spanID, name string) spanID { return t.startFlow(parent, name, 0) }

func (t *tracer) startFlow(parent spanID, name string, flow int) spanID {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.t0)) // a Duration counts nanoseconds
	t.mu.Lock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, StartNs: now, Flow: flow})
	t.mu.Unlock()
	return id
}

// end closes a span that covered `calls` calls into the layer.
func (t *tracer) end(id spanID, calls int) {
	if !t.on {
		return
	}
	now := int64(time.Since(t.t0)) // a Duration counts nanoseconds
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Calls = calls
	t.mu.Unlock()
}

// selfTimes fills SelfNs: a span's duration minus the part of its interval
// its child spans cover. Children of concurrent clients overlap, so the
// cover is the union of their intervals clipped to the parent.
func selfTimes(spans []spanRec) {
	children := make(map[spanID][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), p.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > p.EndNs {
				hi = p.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.SelfNs = p.EndNs - p.StartNs - covered
	}
}

// traceFile is what a traced child leaves in bench/out.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Rep      int       `json:"rep"`
	Spans    []spanRec `json:"spans"`
}

// write stores the spans, with self times, as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64, rep int) error {
	if !t.on {
		return nil
	}
	selfTimes(t.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Rep: rep, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
