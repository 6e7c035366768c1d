package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around a module's public entry point. Spans of one op or request
// share an ID; nesting follows from their intervals.
type span struct {
	Layer string  `json:"layer"`
	ID    string  `json:"id"`
	Tag   string  `json:"tag,omitempty"`
	Start float64 `json:"start_ms"`
	End   float64 `json:"end_ms"`
	Self  float64 `json:"self_ms"`
}

// maxSpans bounds the spans a traced run keeps in memory, and
// opSpansMax the spans one traced op records at most (a front-mix
// request records 3 or 4, a library op 2 or 3).
const (
	maxSpans   = 1 << 18
	opSpansMax = 8
)

// tracer keeps the spans of a traced run in memory; they are written
// out when the run ends. A nil tracer records nothing.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(layer, id, tag string, start, end time.Time) {
	if t == nil {
		return
	}
	ms := func(x time.Time) float64 { return float64(x.Sub(t.epoch)) / 1e6 }
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Layer: layer, ID: id, Tag: tag, Start: ms(start), End: ms(end)})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// hasRoom says whether one more op can be traced without the tracer
// dropping a span. A nil tracer has no room.
func (t *tracer) hasRoom() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)+opSpansMax <= maxSpans
}

// droppedSpans is how many spans did not fit.
func (t *tracer) droppedSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// finished returns the recorded spans with their self times: a span's
// duration minus the part of it that its child spans cover. Within one
// ID, a span's parent is the shortest span that contains it.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].ID != spans[b].ID {
			return spans[a].ID < spans[b].ID
		}
		if spans[a].Start != spans[b].Start {
			return spans[a].Start < spans[b].Start
		}
		return spans[a].End > spans[b].End
	})
	children := make([][]int, len(spans))
	var stack []int
	for i := range spans {
		if i > 0 && spans[i].ID != spans[i-1].ID {
			stack = stack[:0]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			children[p] = append(children[p], i)
		}
		stack = append(stack, i)
	}
	for i := range spans {
		covered, reach := 0.0, spans[i].Start
		for _, c := range children[i] { // in start order
			lo, hi := max(spans[c].Start, reach), spans[c].End
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
	return spans
}

// selfByLayer returns the self times (ms) of the layer's spans.
func selfByLayer(spans []span, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s.Self)
		}
	}
	return out
}

// durByLayer returns the durations (ms) of the layer's spans.
func durByLayer(spans []span, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ledgerRow is one workload's row of the layer ledger.
type ledgerRow struct {
	Workload string            `json:"workload"`
	Stamp    stamp             `json:"stamp"`
	Metrics  map[string]metric `json:"metrics"`
}

// writeLedger updates the workload's row in dir/ledger.json and writes
// the run's spans to dir/spans-<workload>.json.
func writeLedger(dir, name string, s stamp, m map[string]metric, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	path := filepath.Join(dir, "ledger.json")
	var rows []ledgerRow
	if data, err := os.ReadFile(path); err == nil {
		// A ledger that does not parse is replaced, not merged.
		_ = json.Unmarshal(data, &rows)
	}
	kept := rows[:0]
	for _, r := range rows {
		if r.Workload != name {
			kept = append(kept, r)
		}
	}
	rows = append(kept, ledgerRow{Workload: name, Stamp: s, Metrics: m})
	sort.Slice(rows, func(a, b int) bool { return rows[a].Workload < rows[b].Workload })
	if err := writeJSON(path, rows); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "spans-"+name+".json"), tr.finished())
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("ledger: encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}

// printLedger writes the run's layer table to standard error.
func printLedger(name string, m map[string]metric) {
	fmt.Fprintf(os.Stderr, "layer ledger, %s:\n", name)
	for _, d := range perLayer {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}
