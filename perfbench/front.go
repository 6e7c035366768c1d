package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpss"
	"mpss/api"
	"mpss/internal/cluster"
	"mpss/internal/obs"
	"mpss/internal/server"
)

// The traffic follows mpss-loadgen's defaults where they exist: its
// instance shape (the bursty generator, 16 jobs, m=3), its warm pool of
// 8 instances and its endpoint weights optimal=6, oa=2, feasible=1,
// mincap=1 for the cache-missing requests. The shares of hot reads,
// cache-missing requests and session deltas are chosen, not derived:
// mpss-loadgen has no sessions and sends half its requests uncached,
// while this workload is meant to be mostly cache hits. NOTES.md says
// where each number comes from.
const (
	replicas = 2

	instanceGen  = "bursty"
	instanceJobs = 16
	instanceM    = 3

	hotPool     = 8 // instances whose optimal solves the replicas' caches answer
	uniqueBases = 8 // instances the cache-missing requests are made from

	// The client's session, opened during set-up, is a slotted
	// instance: slotted jobs share event points, so removing one job
	// usually keeps the partition and the delta can re-solve
	// incrementally.
	sessionGen = "slotted"

	// The request mix, in percent; the rest are session deltas.
	hotShare    = 80
	uniqueShare = 15

	mincapRel = 1e-6
)

// uniqueKinds are the cache-missing request kinds with their weights.
var uniqueKinds = []struct {
	name   string
	weight int
}{{"optimal", 6}, {"oa", 2}, {"feasible", 1}, {"mincap", 1}}

// hotItem is one hot-pool instance with its reference energy and the
// hash of the response body that passed the full check.
type hotItem struct {
	in       *mpss.Instance
	energy   float64
	verified [32]byte
}

// baseItem is an instance the unique requests are derived from, with
// the library's answers for it.
type baseItem struct {
	in       *mpss.Instance
	energy   float64 // optimal
	oaEnergy float64
	minCap   float64
}

// frontFixture runs front-mix: one api.Client → cluster.Front → 2
// server.Server replicas, all in this process over loopback HTTP.
type frontFixture struct {
	hot     []hotItem
	bases   []baseItem
	reps    []*server.Server
	front   *cluster.Front
	https   []*http.Server // front first
	serving sync.WaitGroup // the listeners' Serve goroutines
	tr      *tracer
	hash    string

	// The client, with its own connection, request draws and session.
	api        *api.Client
	transport  *http.Transport
	rng        *rand.Rand
	unique     int // unique requests issued so far
	sessionID  string
	sessionAll []mpss.Job // the session's full job set
	sessEnergy float64    // its reference energy
	// lessEnergy[k] is the reference energy of the set without job k.
	lessEnergy []float64
	removed    int // index into sessionAll of the job removed, -1 none
	nextRemove int

	// before holds the recorders' counters as set-up left them.
	before map[string]float64

	// What the client saw, for the ledger.
	hotOps      int
	hotHits     int
	respBytes   int
	byReplica   map[string]int
	deltas      int
	incremental int
}

func setupFront(seed int64, tr *tracer) (fixture, error) {
	d := &frontFixture{
		tr:        tr,
		rng:       rand.New(rand.NewSource(subSeed(seed, streamClient, 0))),
		removed:   -1,
		byReplica: map[string]int{},
	}
	refs, err := storedRefs()
	if err != nil {
		return nil, err
	}
	hotBase, err := hotInstances()
	if err != nil {
		return nil, err
	}
	bases, err := baseInstances(instanceGen, streamBases, uniqueBases, instanceJobs, instanceM)
	if err != nil {
		return nil, err
	}
	sessBase, err := baseInstances(sessionGen, streamSession, 1, instanceJobs, instanceM)
	if err != nil {
		return nil, err
	}
	hot, bases, session := seeded(hotBase, seed), seeded(bases, seed), seeded(sessBase, seed)[0]
	d.hash = hashJSON([]any{hot, bases, session})
	for i, in := range hot {
		d.hot = append(d.hot, hotItem{in: in, energy: refs.FrontMixHotEnergy[i]})
	}

	// The other references come from the library, outside the server
	// path.
	solver := mpss.NewSolver()
	for i, in := range bases {
		res, err := solver.Solve(in)
		if err != nil {
			return nil, fmt.Errorf("base reference %d: %w", i, err)
		}
		oa, err := solver.OA(in)
		if err != nil {
			return nil, fmt.Errorf("base reference %d: %w", i, err)
		}
		c, err := solver.MinFeasibleCap(in, mincapRel)
		if err != nil {
			return nil, fmt.Errorf("base reference %d: %w", i, err)
		}
		d.bases = append(d.bases, baseItem{in: in, energy: res.Schedule.Energy(alpha), oaEnergy: oa.Schedule.Energy(alpha), minCap: c})
	}

	if err := d.start(); err != nil {
		d.close()
		return nil, err
	}
	d.sessionAll = session.Jobs
	if d.sessEnergy, err = optimalEnergy(solver, session); err != nil {
		d.close()
		return nil, fmt.Errorf("session reference: %w", err)
	}
	for k := range session.Jobs {
		e, err := optimalEnergy(solver, &mpss.Instance{M: session.M, Jobs: without(session.Jobs, k)})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("session reference without job %d: %w", k, err)
		}
		d.lessEnergy = append(d.lessEnergy, e)
	}
	resp, err := d.api.SessionCreate(context.Background(), &api.SolveRequest{M: session.M, Jobs: session.Jobs})
	if err == nil {
		err = verifySchedule(resp.Schedule, session, d.sessEnergy)
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("session create: %w", err)
	}
	d.sessionID = resp.SessionID

	// The warm pass fills the owning replicas' caches with every hot
	// solve and checks each answer in full; later byte-identical answers
	// need no second check.
	for i := range d.hot {
		var out api.OptimalResponse
		res, err := d.call("", "/v1/solve/optimal", &api.SolveRequest{M: d.hot[i].in.M, Jobs: d.hot[i].in.Jobs}, &out)
		if err == nil {
			err = verifySchedule(out.Schedule, d.hot[i].in, d.hot[i].energy)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("warm hot solve %d: %w", i, err)
		}
		d.hot[i].verified = sha256.Sum256(res.Body)
	}
	d.before = readCounters(append(solverCounters, serverCounters...), d.recorders()...)
	return d, nil
}

// hotInstances are the base instances of the hot pool.
func hotInstances() ([]*mpss.Instance, error) {
	return baseInstances(instanceGen, streamHot, hotPool, instanceJobs, instanceM)
}

// optimalEnergy is the library's optimal energy for in.
func optimalEnergy(solver *mpss.Solver, in *mpss.Instance) (float64, error) {
	res, err := solver.Solve(in)
	if err != nil {
		return 0, err
	}
	return res.Schedule.Energy(alpha), nil
}

// without returns jobs less the one at index k (k < 0 keeps them all).
func without(jobs []mpss.Job, k int) []mpss.Job {
	out := make([]mpss.Job, 0, len(jobs))
	for i, j := range jobs {
		if i != k {
			out = append(out, j)
		}
	}
	return out
}

// start brings up the replicas and the front on loopback listeners.
func (d *frontFixture) start() error {
	var urls []string
	for i := 0; i < replicas; i++ {
		s := server.New(server.Config{ReplicaName: fmt.Sprintf("replica-%d", i)})
		d.reps = append(d.reps, s)
		url, err := d.serve(d.spanHandler("server.Server", s))
		if err != nil {
			return err
		}
		urls = append(urls, url)
	}
	f, err := cluster.New(cluster.Config{
		Spawner:     &cluster.StaticSpawner{URLs: urls},
		MinReplicas: replicas,
		MaxReplicas: replicas,
	})
	if err != nil {
		return err
	}
	d.front = f
	url, err := d.serve(d.spanHandler("cluster.Front", f))
	if err != nil {
		return err
	}
	// The front's listener goes first so close stops it first.
	d.https = append([]*http.Server{d.https[len(d.https)-1]}, d.https[:len(d.https)-1]...)
	d.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	d.api = api.NewClient(url, api.WithHTTPClient(&http.Client{Transport: d.transport}))
	return nil
}

func (d *frontFixture) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.https = append(d.https, srv)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		srv.Serve(ln) // returns once close shuts the server down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, the front and the replicas and waits for
// the listeners to return. Teardown errors change nothing a run reports.
func (d *frontFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer d.serving.Wait()
	for i, s := range d.https {
		s.Shutdown(ctx)
		if i == 0 && d.front != nil {
			d.front.Shutdown(ctx)
		}
	}
	for _, s := range d.reps {
		s.Shutdown(ctx)
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
}

func (d *frontFixture) inputHash() string { return d.hash }
func (d *frontFixture) passLen() int      { return 1 }

// tracedID marks the requests whose spans the traced run records;
// untraced requests carry the client's random hex IDs.
const tracedID = "t-"

// spanHandler records a span around every traced request h serves,
// tagged with the endpoint and, for a replica, whether its cache hit.
func (d *frontFixture) spanHandler(layer string, h http.Handler) http.Handler {
	if d.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(api.HeaderRequestID)
		if !strings.HasPrefix(id, tracedID) {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tag := endpointOf(r.URL.Path)
		if layer == "server.Server" {
			if w.Header().Get(api.HeaderCache) == "hit" {
				tag += ":hit"
			} else {
				tag += ":miss"
			}
		}
		d.tr.record(layer, id, tag, t0, time.Now())
	})
}

func endpointOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/delta"):
		return "delta"
	case strings.HasPrefix(path, "/v1/cache/"):
		return "cache_peek"
	case strings.HasPrefix(path, "/v1/solve/"):
		return strings.TrimPrefix(path, "/v1/solve/")
	default:
		return strings.TrimPrefix(path, "/v1/")
	}
}

// call is api.Client.Do that also returns the transport result, whose
// headers and size the ledger reads.
func (d *frontFixture) call(id, path string, in, out any) (*api.Result, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if id != "" {
		ctx = api.WithRequestID(ctx, id)
	}
	res, err := d.api.DoRaw(ctx, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	if res.Status < 200 || res.Status > 299 {
		return res, api.DecodeError(res.Status, res.RequestID, res.Body)
	}
	if err := json.Unmarshal(res.Body, out); err != nil {
		return res, fmt.Errorf("decoding %s response: %w", path, err)
	}
	return res, nil
}

func (d *frontFixture) do(i int, traced bool) (int, func() error, error) {
	id := ""
	if traced {
		id = tracedID + strconv.Itoa(i)
	}
	t0 := time.Now()
	defer func() {
		if traced {
			d.tr.record("api.Client", id, "", t0, time.Now())
		}
	}()
	switch r := d.rng.Intn(100); {
	case r < hotShare:
		return d.doHot(id)
	case r < hotShare+uniqueShare:
		return d.doUnique(id)
	default:
		return d.doDelta(id)
	}
}

func (d *frontFixture) account(res *api.Result, hot bool) {
	d.respBytes += len(res.Body)
	d.byReplica[res.Header.Get(api.HeaderReplica)]++
	if hot {
		d.hotOps++
		if res.Header.Get(api.HeaderCache) == "hit" {
			d.hotHits++
		}
	}
}

func (d *frontFixture) doHot(id string) (int, func() error, error) {
	h := &d.hot[d.rng.Intn(len(d.hot))]
	var out api.OptimalResponse
	res, err := d.call(id, "/v1/solve/optimal", &api.SolveRequest{M: h.in.M, Jobs: h.in.Jobs}, &out)
	if err != nil {
		return 0, nil, err
	}
	d.account(res, true)
	return h.in.N(), func() error {
		if sha256.Sum256(res.Body) == h.verified {
			return nil
		}
		return d.verify(id, out.Schedule, h.in, h.energy)
	}, nil
}

// verify is verifySchedule with a span in traced runs.
func (d *frontFixture) verify(id string, s *mpss.Schedule, in *mpss.Instance, energy float64) error {
	t0 := time.Now()
	err := verifySchedule(s, in, energy)
	if id != "" {
		d.tr.record("mpss.Verify", id, "", t0, time.Now())
	}
	return err
}

// pickKind draws a cache-missing request kind by its weight.
func pickKind(rng *rand.Rand) string {
	total := 0
	for _, k := range uniqueKinds {
		total += k.weight
	}
	r := rng.Intn(total)
	for _, k := range uniqueKinds {
		if r < k.weight {
			return k.name
		}
		r -= k.weight
	}
	panic("unreachable")
}

// doUnique sends a request no cache has seen: a base instance with
// fresh job IDs, shifted in time by a multiple of 64. Shifting and
// relabelling leave every answer the same up to float rounding, so the
// base instance's answers are the references.
func (d *frontFixture) doUnique(id string) (int, func() error, error) {
	kind := pickKind(d.rng)
	b := &d.bases[d.rng.Intn(len(d.bases))]
	u := d.unique
	d.unique++
	in := shifted(b.in, 1_000_000*(u+1), 64*float64(u%1024))
	req := &api.SolveRequest{M: in.M, Jobs: in.Jobs}
	var (
		res   *api.Result
		err   error
		check func() error
	)
	switch kind {
	case "optimal":
		var out api.OptimalResponse
		res, err = d.call(id, "/v1/solve/optimal", req, &out)
		check = func() error { return d.verify(id, out.Schedule, in, b.energy) }
	case "oa":
		var out api.OnlineResponse
		res, err = d.call(id, "/v1/solve/oa", req, &out)
		check = func() error { return d.verify(id, out.Schedule, in, b.oaEnergy) }
	case "feasible":
		// Above the minimum cap the instance fits; below it, it does not.
		want := u%2 == 0
		req.Cap = b.minCap * 0.8
		if want {
			req.Cap = b.minCap * 1.25
		}
		var out api.FeasibleResponse
		res, err = d.call(id, "/v1/feasible", req, &out)
		check = func() error {
			if out.Feasible != want {
				return fmt.Errorf("feasible at cap %v: %v, want %v", req.Cap, out.Feasible, want)
			}
			return nil
		}
	case "mincap":
		req.Rel = mincapRel
		var out api.MinCapResponse
		res, err = d.call(id, "/v1/mincap", req, &out)
		check = func() error {
			if math.Abs(out.Cap-b.minCap) > 4*mincapRel*b.minCap {
				return fmt.Errorf("mincap %v, reference %v", out.Cap, b.minCap)
			}
			return nil
		}
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", kind, err)
	}
	d.account(res, false)
	return in.N(), check, nil
}

// doDelta removes one job from the client's session, or adds back the
// one it removed last, and checks the re-solve against the client's
// own copy of the job set and the library's energy for that set,
// computed at set-up outside the server path.
func (d *frontFixture) doDelta(id string) (int, func() error, error) {
	var req api.SessionDeltaRequest
	removing := d.removed < 0
	k := d.removed
	if removing {
		k = d.nextRemove % len(d.sessionAll)
		d.nextRemove++
		req.RemoveIDs = []int{d.sessionAll[k].ID}
	} else {
		req.AddJobs = []mpss.Job{d.sessionAll[k]}
	}
	var out api.SessionResponse
	res, err := d.call(id, "/v1/session/"+d.sessionID+"/delta", &req, &out)
	if err != nil {
		return 0, nil, fmt.Errorf("session delta: %w", err)
	}
	want := d.sessEnergy
	if removing {
		d.removed = k
		want = d.lessEnergy[k]
	} else {
		d.removed = -1
	}
	in := &mpss.Instance{M: instanceM, Jobs: without(d.sessionAll, d.removed)}
	d.account(res, false)
	d.deltas++
	if out.Incremental {
		d.incremental++
	}
	return 1, func() error {
		if out.Jobs != in.N() {
			return fmt.Errorf("session holds %d jobs, client copy %d", out.Jobs, in.N())
		}
		return d.verify(id, out.Schedule, in, want)
	}, nil
}

// serverCounters are the server and front counters read around the
// window.
var serverCounters = []string{
	"server.cache_hits", "server.cache_misses", "server.coalesced", "server.rejected",
	"cluster.retries", "cluster.coalesced",
}

func (d *frontFixture) recorders() []*obs.Recorder {
	recs := []*obs.Recorder{d.front.Recorder()}
	for _, s := range d.reps {
		recs = append(recs, s.Recorder())
	}
	return recs
}

func (d *frontFixture) layers(st *runStats) map[string]float64 {
	after := readCounters(append(solverCounters, serverCounters...), d.recorders()...)
	c := delta(d.before, after)
	spans := d.tr.finished()
	ops, tops := float64(st.ops), float64(st.tracedOps)
	v := map[string]float64{}

	// Solver time inside the replicas is not visible from outside; the
	// replica handler time of requests that reached a solver stands in.
	var solverMs float64
	var miss, oa, deltaMs []float64
	for _, s := range spans {
		if s.Layer != "server.Server" {
			continue
		}
		kind, cache, _ := strings.Cut(s.Tag, ":")
		dur := s.End - s.Start
		switch {
		case kind == "delta":
			deltaMs = append(deltaMs, dur)
		case cache == "miss" && kind != "cache_peek":
			miss = append(miss, dur)
			if kind == "oa" {
				oa = append(oa, dur)
			}
		default:
			continue
		}
		solverMs += dur
	}
	solverLayers(v, c, ops, solverMs*ops/math.Max(tops, 1))

	handler := durByLayer(spans, "server.Server")
	v["server.handler_ms_p50"] = percentile(handler, 50)
	v["server.handler_ms_p99"] = percentile(handler, 99)
	var qw float64
	for _, s := range d.reps {
		if sum, err := s.Recorder().Histogram("server.queue_wait_seconds").Summary(); err == nil {
			qw = math.Max(qw, 1e3*sum.P99)
		}
	}
	v["server.queue_wait_ms_p99"] = qw
	v["server.cache_hit_ratio"] = ratio(c["server.cache_hits"], c["server.cache_hits"]+c["server.cache_misses"])
	v["server.coalesced_ratio"] = ratio(c["server.coalesced"], c["server.cache_misses"])
	v["server.rejected"] = c["server.rejected"]
	v["server.miss_handler_ms_p50"] = percentile(miss, 50)
	v["online.oa_handler_ms_p50"] = percentile(oa, 50)
	v["server.delta_ms_p50"] = percentile(deltaMs, 50)

	v["server.session_incremental_ratio"] = ratio(float64(d.incremental), float64(d.deltas))
	v["cluster.affinity_ratio"] = ratio(float64(d.hotHits), float64(d.hotOps))
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < replicas; i++ {
		n := float64(d.byReplica[fmt.Sprintf("r%d", i+1)])
		lo, hi = math.Min(lo, n), math.Max(hi, n)
	}
	v["cluster.replica_balance"] = ratio(lo, hi)
	v["api.response_kb_per_op"] = float64(d.respBytes) / 1024 / ops

	frontSelf := selfByLayer(spans, "cluster.Front")
	v["cluster.front_self_ms_p50"] = percentile(frontSelf, 50)
	v["cluster.front_self_ms_p99"] = percentile(frontSelf, 99)
	v["cluster.retries"] = c["cluster.retries"]
	v["cluster.coalesced"] = c["cluster.coalesced"]
	clientSelf := selfByLayer(spans, "api.Client")
	v["api.client_self_ms_p50"] = percentile(clientSelf, 50)
	v["schedule.verify_ms_per_op"] = sum(durByLayer(spans, "mpss.Verify")) / math.Max(tops, 1)

	// The ledger over traced ops: client, front and replica self times;
	// the replica's share splits into max-flow time (from the solver's
	// own histogram, spread over every op) and the rest.
	flowMs := 1e3 * c["flow_seconds"] / ops
	apiMs := sum(clientSelf) / tops
	frontMs := sum(frontSelf) / tops
	repMs := sum(selfByLayer(spans, "server.Server")) / tops
	v["ledger.api_self_ms"] = apiMs
	v["ledger.cluster_self_ms"] = frontMs
	v["ledger.flow_self_ms"] = flowMs
	v["ledger.server_self_ms"] = repMs - flowMs
	v["ledger.accounted_pct"] = 100 * ratio(apiMs+frontMs+repMs, mean(st.latTraced))
	return v
}
