package mpss

import (
	"bytes"
	"encoding/json"
	"testing"
)

// separableInstance lays k independently generated instances of the
// named workload end to end on one time axis, with a gap between them,
// so a decomposed solve finds k components to fan over its workers.
func separableInstance(t *testing.T, name string, k, n, m int) *Instance {
	t.Helper()
	out := &Instance{M: m}
	offset := 0.0
	for c := 0; c < k; c++ {
		part, err := GenerateWorkload(name, WorkloadSpec{N: n, M: m, Seed: int64(c + 1)})
		if err != nil {
			t.Fatal(err)
		}
		start, end := part.Horizon()
		for _, j := range part.Jobs {
			j.ID = len(out.Jobs) + 1
			j.Release += offset - start
			j.Deadline += offset - start
			out.Jobs = append(out.Jobs, j)
		}
		offset += end - start + 10
	}
	return out
}

// TestOptimalScheduleIdenticalAcrossWorkers pins what WithParallelism
// means now that one sequential max-flow engine solves every round: it
// sets only how many decomposition components are solved at once. The
// JSON-encoded result must be byte-identical at 1, 2 and 4 workers,
// with and without decomposition.
func TestOptimalScheduleIdenticalAcrossWorkers(t *testing.T) {
	const components = 4
	for _, name := range []string{"uniform", "slotted"} {
		in := separableInstance(t, name, components, 24, 3)
		rec := NewRecorder()
		if _, err := OptimalSchedule(in, WithDecomposition(true), WithRecorder(rec)); err != nil {
			t.Fatal(err)
		}
		if got := rec.Value("opt.components"); got < components {
			t.Fatalf("%s: decomposed into %d components, want at least %d", name, got, components)
		}
		for _, decompose := range []bool{false, true} {
			var want []byte
			for _, workers := range []int{1, 2, 4} {
				opts := []SolveOption{WithParallelism(workers)}
				if decompose {
					opts = append(opts, WithDecomposition(true))
				}
				res, err := OptimalSchedule(in, opts...)
				if err != nil {
					t.Fatalf("%s decompose=%v workers=%d: %v", name, decompose, workers, err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s decompose=%v: %d workers encode %d bytes that differ from 1 worker's %d",
						name, decompose, workers, len(got), len(want))
				}
			}
		}
	}
}
