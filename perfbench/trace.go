package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"mpss"
)

const (
	traceJobs = 5000
	traceM    = 8
)

// diurnalTrace generates the base trace as the seed varies it, as an
// mpss-trace-v1 stream in memory.
func diurnalTrace(seed int64) ([]byte, error) {
	var base bytes.Buffer
	tw, err := mpss.NewTraceWriter(&base, traceM)
	if err != nil {
		return nil, err
	}
	if err := mpss.GenerateTrace(tw, mpss.WorkloadSpec{N: traceJobs, M: traceM, Seed: subSeed(baseSeed, streamTrace, 0)}); err != nil {
		return nil, err
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	r, err := mpss.NewTraceReader(&base)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if tw, err = mpss.NewTraceWriter(&out, traceM); err != nil {
		return nil, err
	}
	id, dt := seedShift(seed)
	for {
		j, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := tw.Write(mpss.Job{ID: j.ID + id, Release: j.Release + dt, Deadline: j.Deadline + dt, Work: j.Work}); err != nil {
			return nil, err
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// solveTrace is the op: the streamed solve at its defaults (one
// component worker).
func solveTrace(data []byte, rec *mpss.Recorder) (*mpss.TraceSolveSummary, error) {
	var opts []mpss.SolveOption
	if rec != nil {
		opts = append(opts, mpss.WithRecorder(rec))
	}
	return mpss.SolveTraceStream(bytes.NewReader(data), alpha, opts...)
}

// traceFixture runs trace-diurnal: one caller solving the same
// in-memory trace again and again.
type traceFixture struct {
	data []byte
	ref  mpss.TraceSolveSummary
	rec  *mpss.Recorder
	tr   *tracer
	hash string
}

func setupTrace(seed int64, tr *tracer) (fixture, error) {
	data, err := diurnalTrace(seed)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	d := &traceFixture{data: data, tr: tr, hash: hex.EncodeToString(sum[:])}
	// The warm pass's summary is the set-up figure every op must
	// reproduce; it must itself match the stored reference.
	warm, err := solveTrace(data, nil)
	if err != nil {
		return nil, fmt.Errorf("warm solve: %w", err)
	}
	d.ref = *warm
	refs, err := storedRefs()
	if err != nil {
		return nil, err
	}
	if err := sameSummary(warm, refs.TraceDiurnal); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace-diurnal warm solve against the stored reference: %v\n", err)
		d.ref = *refs.TraceDiurnal
	}
	if tr != nil {
		d.rec = mpss.NewRecorder()
		d.rec.LimitTrace(4096)
	}
	return d, nil
}

func (d *traceFixture) inputHash() string { return d.hash }
func (d *traceFixture) passLen() int      { return 1 }
func (d *traceFixture) close()            {}

func (d *traceFixture) do(i int, traced bool) (int, func() error, error) {
	var rec *mpss.Recorder
	if traced {
		rec = d.rec
	}
	t0 := time.Now()
	got, err := solveTrace(d.data, rec)
	id := "op" + strconv.Itoa(i)
	if traced {
		d.tr.record("mpss.SolveTraceStream", id, "", t0, time.Now())
	}
	if err != nil {
		return 0, nil, err
	}
	return got.Jobs, func() error {
		if traced {
			// The decoder's share, timed on its own: one TraceReader
			// pass over the same bytes.
			t1 := time.Now()
			if err := decodeTrace(d.data); err != nil {
				return err
			}
			d.tr.record("workload.TraceReader", id, "", t1, time.Now())
		}
		return sameSummary(got, &d.ref)
	}, nil
}

// decodeTrace reads every job of the trace.
func decodeTrace(data []byte) error {
	r, err := mpss.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// sameSummary compares a trace solve with its reference: the counts
// exactly, the energy to relTol.
func sameSummary(got, want *mpss.TraceSolveSummary) error {
	g, w := *got, *want
	g.Energy, w.Energy = 0, 0
	if g != w {
		return fmt.Errorf("summary %+v, reference %+v", *got, *want)
	}
	if !sameEnergy(got.Energy, want.Energy) {
		return fmt.Errorf("energy %v, reference %v", got.Energy, want.Energy)
	}
	return nil
}

func (d *traceFixture) layers(st *runStats) map[string]float64 {
	spans := d.tr.finished()
	ops := float64(st.tracedOps)
	solveMs := sum(durByLayer(spans, "mpss.SolveTraceStream"))
	decodeMs := mean(durByLayer(spans, "workload.TraceReader"))
	c := readCounters(solverCounters, d.rec)
	v := map[string]float64{}
	solverLayers(v, c, ops, solveMs)
	v["workload.decode_ms_per_op"] = decodeMs
	v["opt.components_per_op"] = c["opt.components"] / ops
	v["opt.component_jobs_max"] = float64(d.ref.MaxComponentJobs)
	// The stream is decoded by the caller's goroutine while the worker
	// solves, so the decoder's self time is its stand-alone pass; the
	// rest of the solve span, less the max-flow time, is opt's.
	flowMs := 1e3 * c["flow_seconds"] / ops
	v["ledger.workload_self_ms"] = decodeMs
	v["ledger.flow_self_ms"] = flowMs
	v["ledger.opt_self_ms"] = solveMs/ops - flowMs - decodeMs
	v["ledger.accounted_pct"] = 100 * ratio(solveMs/ops, mean(st.latTraced))
	return v
}
