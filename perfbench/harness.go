package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// workload is one benchmark workload: how to set it up and what its
// latency tail is.
type workload struct {
	name string
	why  string
	// tailPct is the percentile latency_tail_ms reports: the highest of
	// p99, p90 and p50 that leaves at least ten samples beyond it at the
	// default run length (trace-diurnal has too few solves for any tail,
	// so its "tail" is the median).
	tailPct float64
	// setups is how many times a run sets the workload up; setup_s is
	// the median, so one slow set-up on a shared host does not move it.
	// A workload whose set-up is short sets up more often.
	setups int
	setup  func(seed int64, tr *tracer) (fixture, error)
}

// fixture is one set-up workload. Set-up has built its inputs, checked
// the references and made one untimed warm pass.
type fixture interface {
	// inputHash identifies the generated inputs.
	inputHash() string
	// passLen is the number of ops in one pass; a run stops only at a
	// pass boundary, so every run weighs the inputs alike.
	passLen() int
	// do runs op i and returns the jobs it scheduled and the check of
	// its result, which runs after the op's timer stops. traced asks
	// for the op to be observed (recorders and spans).
	do(i int, traced bool) (jobs int, check func() error, err error)
	// layers derives the per-layer metrics after a traced window.
	layers(st *runStats) map[string]float64
	close()
}

// runStats is what the measured window saw.
type runStats struct {
	ops, failed       int
	tracedOps         int
	lat               []float64 // ms, untraced ops
	latTraced         []float64 // ms, traced ops
	rateUntraced      float64   // ops/s over untraced ops
	rateTraced        float64
	opsRate, jobsRate float64 // end-to-end: every op counts
	checkCPU          float64 // seconds of thread CPU the checks took
	checkWall         float64 // seconds the checks took
	cpu               float64 // process user+sys seconds in the window
	wall              float64
	mem0, mem1        runtime.MemStats
	firstErr          error
}

type runResult struct {
	Stamp stamp
	Line  resultLine
}

func run(w workload, cfg config) (*runResult, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var d fixture
	setupTimes := make([]float64, 0, w.setups)
	for k := 0; k < w.setups; k++ {
		var prevHash string
		if d != nil {
			// The previous set-up is torn down first, so set-ups never
			// hold two copies of the inputs and servers.
			prevHash = d.inputHash()
			d.close()
			runtime.GC()
		}
		t0 := time.Now()
		nd, err := w.setup(cfg.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		d = nd
		if prevHash != "" && prevHash != d.inputHash() {
			d.close()
			return nil, fmt.Errorf("%s set-up is not deterministic: input hashes %s and %s", w.name, prevHash, d.inputHash())
		}
	}
	defer d.close()

	st := measure(d, cfg.seconds, cfg.traced, tr)
	if n := tr.droppedSpans(); n > 0 {
		return nil, fmt.Errorf("%s: the traced run dropped %d spans", w.name, n)
	}
	if st.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", w.name, st.failed, st.ops, st.firstErr)
	}

	s := newStamp(w, cfg, d.inputHash(), st)
	line := resultLine{Correct: st.failed == 0, Attempted: st.ops, Failed: st.failed}
	if cfg.traced {
		vals := d.layers(st)
		addRuntimeLayers(vals, st)
		line.Metrics = fill(perLayer, vals)
		if cfg.outDir != "" {
			if err := writeLedger(cfg.outDir, w.name, s, line.Metrics, tr); err != nil {
				return nil, err
			}
		}
		printLedger(w.name, line.Metrics)
	} else {
		line.Metrics = fill(endToEnd, map[string]float64{
			"setup_s":         median(setupTimes),
			"ops_per_s":       st.opsRate,
			"jobs_per_s":      st.jobsRate,
			"latency_p50_ms":  percentile(st.lat, 50),
			"latency_tail_ms": percentile(st.lat, w.tailPct),
			"cpu_ms_per_op":   1e3 * (st.cpu - st.checkCPU) / float64(st.ops),
			"peak_rss_mb":     peakRSSMB(),
		})
	}
	return &runResult{Stamp: s, Line: line}, nil
}

// measure drives the closed loop: one caller issuing its next op once
// the previous one has returned and been checked, until seconds have
// passed and the pass is complete. In a traced run every second pass is
// traced, so the traced and untraced rates compare the same inputs, run
// side by side; ops are traced only while the tracer has room for all
// of their spans.
func measure(d fixture, seconds float64, traced bool, tr *tracer) *runStats {
	st := &runStats{}
	runtime.GC()
	runtime.ReadMemStats(&st.mem0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	// The caller's rate is its ops over the time it spent waiting on the
	// system; the checks in between are the benchmark's own work and do
	// not count.
	var busy, busyT float64
	var jobs int
	fail := func(err error) {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	pass := d.passLen()
	for i := 0; i%pass != 0 || time.Now().Before(deadline); i++ {
		tracedOp := traced && (i/pass)%2 == 1 && tr.hasRoom()
		t0 := time.Now()
		n, check, err := d.do(i, tracedOp)
		el := time.Since(t0).Seconds()
		st.ops++
		if tracedOp {
			st.tracedOps++
			st.latTraced = append(st.latTraced, 1e3*el)
			busyT += el
		} else {
			st.lat = append(st.lat, 1e3*el)
			busy += el
		}
		if err != nil {
			fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		jobs += n
		// The check runs on a locked OS thread, so the thread's CPU time
		// is the check's alone.
		runtime.LockOSThread()
		c0, w0 := threadCPU(), time.Now()
		err = check()
		st.checkCPU += (threadCPU() - c0).Seconds()
		st.checkWall += time.Since(w0).Seconds()
		runtime.UnlockOSThread()
		if err != nil {
			fail(fmt.Errorf("op %d: %w", i, err))
		}
	}
	st.wall = time.Since(start).Seconds()
	st.cpu = (processCPU() - cpu0).Seconds()
	runtime.ReadMemStats(&st.mem1)
	st.opsRate = ratio(float64(st.ops), busy+busyT)
	st.jobsRate = ratio(float64(jobs), busy+busyT)
	st.rateUntraced = ratio(float64(st.ops-st.tracedOps), busy)
	st.rateTraced = ratio(float64(st.tracedOps), busyT)
	return st
}

// addRuntimeLayers adds the Go runtime and observer-cost metrics every
// workload shares.
func addRuntimeLayers(v map[string]float64, st *runStats) {
	ops := float64(st.ops)
	v["go.alloc_mb_per_op"] = float64(st.mem1.TotalAlloc-st.mem0.TotalAlloc) / (1 << 20) / ops
	v["go.allocs_per_op"] = float64(st.mem1.Mallocs-st.mem0.Mallocs) / ops
	v["go.gc_cycles_per_op"] = float64(st.mem1.NumGC-st.mem0.NumGC) / ops
	v["go.gc_pause_ms_per_op"] = float64(st.mem1.PauseTotalNs-st.mem0.PauseTotalNs) / 1e6 / ops
	if st.rateTraced > 0 {
		v["obs.trace_overhead_pct"] = 100 * (st.rateUntraced/st.rateTraced - 1)
	}
	v["run.ops"] = ops
	v["run.traced_ops"] = float64(st.tracedOps)
	v["ledger.latency_ms_mean"] = mean(st.latTraced)
}

// percentile interpolates linearly between the closest ranks of the
// samples (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPU is the calling OS thread's user+sys time; callers lock the
// goroutine to its thread around what they measure.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
