package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module: its name is
// the layer metric it feeds ("core.capture", "pcap.write", …), op ties it
// to the operation it belongs to and parent to the span that caused it
// (-1 for an operation's root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans and per-layer counts in memory for the whole run
// and writes them out when it ends. A nil tracer is the untraced run:
// every method is a no-op, so workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	sums  map[string]float64 // counts summed over ops
	maxes map[string]float64 // high-water marks over ops
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]float64{}, maxes: map[string]float64{}}
}

// spanRef is a handle on an open span.
type spanRef struct {
	t  *tracer
	id int
	op int
}

// root opens the span that covers operation op as a whole.
func (t *tracer) root(op int) spanRef {
	return t.open(op, -1, "op")
}

func (t *tracer) open(op, parent int, name string) spanRef {
	if t == nil {
		return spanRef{id: -1, op: op}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, StartNs: now})
	return spanRef{t: t, id: id, op: op}
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef {
	return s.t.open(s.op, s.id, name)
}

// sibling opens a root-level span of the same operation that lies
// outside the operation's own time (the serve workload's replays of a
// request outside HTTP).
func (s spanRef) sibling(name string) spanRef {
	return s.t.open(s.op, -1, name)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].EndNs = now
	s.t.mu.Unlock()
}

// add sums a per-op count; setMax keeps its largest value.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

func (t *tracer) setMax(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.maxes[name] {
		t.maxes[name] = v
	}
	t.mu.Unlock()
}

// layerTimes returns, per span name, the summed self time in ms: the
// span's duration minus the part of it its child spans cover.
func (t *tracer) layerTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.EndNs - s.StartNs - covered(s, children[s.ID])
		out[s.Name] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// perOp returns the layer metrics over ops traced operations: mean self
// ms per op for every span name (as "<name>_ms"), mean counts per op,
// high-water marks, and the ratios derived from the counts.
func (t *tracer) perOp(ops int) map[string]float64 {
	out := map[string]float64{}
	n := float64(max(ops, 1))
	for name, ms := range t.layerTimes() {
		out[name+"_ms"] = ms / n
	}
	for name, v := range t.sums {
		out[name] = v / n
	}
	for name, v := range t.maxes {
		out[name] = v
	}
	if w := out["sim.shard.windows"]; w > 0 {
		out["sim.shard.events_per_window"] = out["sim.events"] / w
	}
	if s := out["netsim.flows_started"]; s > 0 {
		out["netsim.flows_completed_ratio"] = out["netsim.flows_completed"] / s
	}
	return out
}

// writeSpans writes every span as one JSON line to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
