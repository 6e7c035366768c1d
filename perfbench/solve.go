package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"mpss"
)

const (
	uniformJobs     = 256
	uniformM        = 8
	uniformRotation = 15 // instances per pass; odd, see NOTES.md
)

func uniformBase() ([]*mpss.Instance, error) {
	return baseInstances("uniform", streamUniform, uniformRotation, uniformJobs, uniformM)
}

// solveFixture runs solve-uniform: one caller, one Solver with the
// library defaults, whole passes over a fixed rotation of instances.
type solveFixture struct {
	ins    []*mpss.Instance
	energy []float64 // stored reference energy per instance
	solver *mpss.Solver
	rec    *mpss.Recorder // attached to traced ops only
	tr     *tracer
	hash   string
}

func setupSolve(seed int64, tr *tracer) (fixture, error) {
	refs, err := storedRefs()
	if err != nil {
		return nil, err
	}
	base, err := uniformBase()
	if err != nil {
		return nil, err
	}
	ins := seeded(base, seed)
	d := &solveFixture{solver: mpss.NewSolver(), tr: tr}
	// The seed sets the rotation's order.
	for _, k := range rand.New(rand.NewSource(seed)).Perm(len(ins)) {
		d.ins = append(d.ins, ins[k])
		d.energy = append(d.energy, refs.SolveUniformEnergy[k])
	}
	d.hash = hashJSON(d.ins)
	// The warm pass solves every instance once. A result that misses its
	// stored reference is reported here and then fails every op on that
	// instance.
	for i, in := range d.ins {
		res, err := d.solver.Solve(in)
		if err != nil {
			return nil, fmt.Errorf("warm solve %d: %w", i, err)
		}
		if err := verifySchedule(res.Schedule, in, d.energy[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: solve-uniform warm solve %d: %v\n", i, err)
		}
	}
	if tr != nil {
		d.rec = mpss.NewRecorder()
		d.rec.LimitTrace(4096) // the server's default span budget
	}
	return d, nil
}

func (d *solveFixture) inputHash() string { return d.hash }
func (d *solveFixture) passLen() int      { return len(d.ins) }
func (d *solveFixture) close()            {}

func (d *solveFixture) do(i int, traced bool) (int, func() error, error) {
	k := i % len(d.ins)
	in := d.ins[k]
	var opts []mpss.SolveOption
	if traced {
		opts = append(opts, mpss.WithRecorder(d.rec))
	}
	t0 := time.Now()
	res, err := d.solver.Solve(in, opts...)
	id := ""
	if traced {
		id = "op" + strconv.Itoa(i)
		d.tr.record("mpss.Solve", id, "", t0, time.Now())
	}
	if err != nil {
		return 0, nil, err
	}
	return in.N(), func() error {
		t1 := time.Now()
		err := verifySchedule(res.Schedule, in, d.energy[k])
		if traced {
			d.tr.record("mpss.Verify", id, "", t1, time.Now())
		}
		if err != nil {
			return fmt.Errorf("instance %d: %w", k, err)
		}
		return nil
	}, nil
}

func (d *solveFixture) layers(st *runStats) map[string]float64 {
	spans := d.tr.finished()
	ops := float64(st.tracedOps)
	solveMs := sum(durByLayer(spans, "mpss.Solve"))
	c := readCounters(solverCounters, d.rec)
	v := map[string]float64{}
	solverLayers(v, c, ops, solveMs)
	flowMs := 1e3 * c["flow_seconds"] / ops
	v["ledger.flow_self_ms"] = flowMs
	v["ledger.opt_self_ms"] = solveMs/ops - flowMs
	v["ledger.accounted_pct"] = 100 * ratio(solveMs/ops, mean(st.latTraced))
	v["schedule.verify_ms_per_op"] = mean(durByLayer(spans, "mpss.Verify"))
	return v
}
