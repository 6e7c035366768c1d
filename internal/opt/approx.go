package opt

import (
	"fmt"
	"math"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
)

// Two-tier cap search, tier 1: packed feasibility probes.
//
// A feasibility probe at cap s solves G(all jobs, full machine, s),
// whose shape — every node and edge except the source capacities — is
// the same for every probe of one cap search. packedProbe precomputes a
// shrunken version of that shape once and reuses it across probes:
//
//   - interval contraction: consecutive atomic intervals with identical
//     active job sets are merged (every interval has the full machine,
//     so the processor budgets are trivially equal — the active-set
//     condition alone makes runs flow-equivalent, see contract.go).
//     Because job windows are contiguous, every job is active in all of
//     a run or none of it, so job edges carry whole run lengths.
//
//   - pre-packing: a job whose window equals exactly one super-interval
//     can only ever run there; it needs no node. Its demand w_k/s is
//     subtracted from that super-interval's sink capacity and added
//     back to the flow value. The max-flow value identity
//     raw = packed + sum(prepacked demands) holds whenever each
//     prepacked demand fits its own window (checked per job) and the
//     packed sink capacities stay non-negative (when a super-interval's
//     pre-packed demand alone exceeds m times its length the instance
//     is infeasible at s outright — those jobs can run nowhere else):
//     one direction routes the prepacked demands on top of a packed max
//     flow; the other places each prepacked job node on its
//     super-interval's side of a packed min cut, growing the cut by
//     exactly the pre-packed demand.
//
//   - early exit: a probe only asks whether the max flow reaches the
//     demand, so the solve uses flow.MaxFlowAtLeast and skips the final
//     proof pass (and any further augmentation) once the target is met.
//
// Packed probes answer the same feasibility question as raw ones up to
// float rounding, so MinFeasibleCap uses them only while the bracket is
// still wide (tier 1, width > approxCapWidth relative) — where the
// probed caps sit far from the feasibility boundary and rounding cannot
// flip an answer — and finishes with raw probes (tier 2). The probe
// points depend only on the bracket, so a search that never gets a
// coarse answer wrong returns the bit-identical cap the pure raw search
// does; the differential tests pin that.

// approxCapWidth is the relative bracket width above which the cap
// search runs its probes on the packed network (tier 1). Below it the
// probes sit near the feasibility boundary and the search switches to
// the raw network (tier 2).
const approxCapWidth = 1e-2

// packedProbe is the precomputed packed probe shape of one cap search.
type packedProbe struct {
	in  *job.Instance
	rec *obs.Recorder

	supLen  []float64 // per super-interval: summed member length
	span    []float64 // per job: window length
	jobSups [][]int32 // per free job: super-intervals it spans (nil for packed jobs)
	packSup []int32   // per job: its pre-pack super-interval, -1 when free
	nSup    int
	nFree   int // jobs that keep a graph node
	nodes   int // graph shape, constant across probes
	edges   int
}

// newPackedProbe computes the packed shape for the instance and its
// interval partition, recording the contraction counters once.
func newPackedProbe(in *job.Instance, ivs []job.Interval, rec *obs.Recorder) *packedProbe {
	p := &packedProbe{in: in, rec: rec}

	// Per-job activity ranges. Windows are contiguous, so the range of
	// intervals a job is active in is jx0..jx1 inclusive.
	n := in.N()
	first := make([]int32, n)
	count := make([]int32, n)
	active := make([][]int32, len(ivs)) // per interval: active job indices, ascending
	for k, j := range in.Jobs {
		first[k] = -1
		for jx, iv := range ivs {
			if j.ActiveIn(iv.Start, iv.End) {
				if first[k] < 0 {
					first[k] = int32(jx)
				}
				count[k]++
				active[jx] = append(active[jx], int32(k))
			}
		}
	}

	// Contract runs of identical active sets.
	supOf := make([]int32, len(ivs))
	var supCount []int32
	for jx := range ivs {
		if p.nSup > 0 && equalInt32(active[jx], active[jx-1]) {
			supOf[jx] = int32(p.nSup - 1)
			p.supLen[p.nSup-1] += ivs[jx].Len()
			supCount[p.nSup-1]++
			continue
		}
		supOf[jx] = int32(p.nSup)
		p.supLen = append(p.supLen, ivs[jx].Len())
		supCount = append(supCount, 1)
		p.nSup++
	}

	// Classify jobs: pre-packed (window equals one whole super-interval)
	// or free (keeps a node, edges to each spanned super-interval).
	p.span = make([]float64, n)
	p.packSup = make([]int32, n)
	p.jobSups = make([][]int32, n)
	p.edges = p.nSup // sink edges
	for k, j := range in.Jobs {
		p.span[k] = j.Span()
		s0, s1 := supOf[first[k]], supOf[first[k]+count[k]-1]
		if s0 == s1 && count[k] == supCount[s0] {
			p.packSup[k] = s0
			continue
		}
		p.packSup[k] = -1
		for s := s0; s <= s1; s++ {
			p.jobSups[k] = append(p.jobSups[k], s)
		}
		p.nFree++
		p.edges += 1 + len(p.jobSups[k])
	}
	p.nodes = 1 + p.nFree + p.nSup + 1

	rec.Add("opt.intervals_raw", int64(len(ivs)))
	rec.Add("opt.intervals_contracted", int64(len(ivs)-p.nSup))
	rec.Add("opt.jobs_prepacked", int64(n-p.nFree))
	return p
}

// feasible is the packed analogue of feasibleProbe: same question, same
// tolerance conventions, solved on the packed network with early exit.
func (p *packedProbe) feasible(s float64) (bool, error) {
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return false, fmt.Errorf("opt: invalid speed cap %v: %w", s, mpsserr.ErrInvalidInstance)
	}
	p.rec.Add("opt.feasibility_probes", 1)
	p.rec.Add("opt.approx_probes", 1)

	need := make([]float64, p.in.N())
	packDemand := make([]float64, p.nSup)
	var demand, packed float64
	for k, j := range p.in.Jobs {
		need[k] = j.Work / s
		if need[k] > p.span[k]*(1+flow.DefaultTolerance) {
			// The job alone cannot finish inside its own window at cap s.
			return false, nil
		}
		demand += need[k]
		if sp := p.packSup[k]; sp >= 0 {
			packDemand[sp] += need[k]
			packed += need[k]
		}
	}
	m := float64(p.in.M)
	for sx, d := range packDemand {
		if d > m*p.supLen[sx] {
			// The jobs pinned to this super-interval can run nowhere
			// else, and together they overflow it.
			return false, nil
		}
	}

	g := flow.AcquireGraph(p.nodes)
	defer flow.ReleaseGraph(g)
	g.Grow(p.nodes, p.edges)
	supBase := 1 + p.nFree
	sink := p.nodes - 1
	node := 1
	for k := range p.in.Jobs {
		if p.packSup[k] >= 0 {
			continue
		}
		g.AddEdge(0, node, need[k])
		for _, sx := range p.jobSups[k] {
			g.AddEdge(node, supBase+int(sx), p.supLen[sx])
		}
		node++
	}
	for sx := 0; sx < p.nSup; sx++ {
		g.AddEdge(supBase+sx, sink, m*p.supLen[sx]-packDemand[sx])
	}

	// Raw acceptance test: value_raw >= demand - slack, with value_raw =
	// value_packed + packed. Early-exit at the equivalent packed target.
	target := demand - packed - flow.SolveTolerance*math.Max(1, demand)
	stop := p.rec.Time("opt.flow_solve_seconds")
	value := g.MaxFlowAtLeast(0, sink, target)
	stop()
	publishDinic(p.rec, nil, g.Ops())
	return value >= target, nil
}
