package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}

// TestSteadiness runs every workload twice at a short length: both runs
// must report the same metric names and units, pass every correctness
// check and have measured the same inputs.
func TestSteadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first *runResult
			for k := 0; k < 2; k++ {
				res, err := run(w, config{seed: 3, seconds: 0.5})
				if err != nil {
					t.Fatal(err)
				}
				l := res.Line
				if !l.Correct || l.Failed != 0 || l.Attempted < 1 || res.Stamp.ErrorRate != 0 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d", k, l.Correct, l.Attempted, l.Failed)
				}
				for _, d := range endToEnd {
					m, ok := l.Metrics[d.name]
					if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
						t.Errorf("run %d: metric %s = %+v, want a positive value in %s", k, d.name, m, d.unit)
					}
				}
				if first == nil {
					first = res
					continue
				}
				if len(l.Metrics) != len(first.Line.Metrics) {
					t.Errorf("runs report %d and %d metrics", len(first.Line.Metrics), len(l.Metrics))
				}
				for name, m := range first.Line.Metrics {
					if l.Metrics[name].Unit != m.Unit {
						t.Errorf("metric %s: units %q and %q", name, m.Unit, l.Metrics[name].Unit)
					}
				}
				if res.Stamp.InputSHA256 != first.Stamp.InputSHA256 {
					t.Errorf("input hashes differ: %s and %s", first.Stamp.InputSHA256, res.Stamp.InputSHA256)
				}
			}
		})
	}
}

// TestSelfTimes checks the ledger's nesting: a span's self time is its
// duration less the union of its children's intervals.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms float64) time.Time { return tr.epoch.Add(time.Duration(ms * float64(time.Millisecond))) }
	tr.record("client", "a", "", at(0), at(10))
	tr.record("front", "a", "", at(1), at(9))
	tr.record("replica", "a", "", at(2), at(4)) // two attempts
	tr.record("replica", "a", "", at(5), at(8))
	tr.record("client", "b", "", at(3), at(6)) // another request, overlapping in time
	want := map[string]float64{"a/client": 2, "a/front": 3, "a/replica": 5, "b/client": 3}
	got := map[string]float64{}
	for _, s := range tr.finished() {
		got[s.ID+"/"+s.Layer] += s.Self
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], w)
		}
	}
}

// TestSpanBudget checks that ops stop being traced before the span
// budget runs out, and that a span beyond it is counted as dropped.
func TestSpanBudget(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	for tr.hasRoom() {
		tr.record("layer", "op", "", now, now)
	}
	if n := len(tr.spans); n != maxSpans-opSpansMax+1 {
		t.Errorf("tracing stopped at %d spans, want %d", n, maxSpans-opSpansMax+1)
	}
	if tr.droppedSpans() != 0 {
		t.Fatalf("dropped %d spans with room left", tr.droppedSpans())
	}
	for len(tr.spans) < maxSpans {
		tr.record("layer", "op", "", now, now)
	}
	tr.record("layer", "op", "", now, now)
	if tr.droppedSpans() != 1 {
		t.Errorf("dropped %d spans, want 1", tr.droppedSpans())
	}
}
