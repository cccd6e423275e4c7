package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nova"
	"nova/graph"
	"nova/internal/core"
	"nova/internal/harness"
	"nova/internal/service"
	"nova/internal/sim"
	"nova/program"
)

// Serving workload shape. The mix is the one the repository's novad load
// test records (cmd/novad loadtest defaults, BENCH_serve.json): a uniform
// degree-8 graph, the engine x workload grid nova, polygraph, ligra x
// bfs, sssp, pr, and a measured cache-hit rate of 0.80. Hits repeat the
// warmed grid cells; misses are fresh-root cells spread evenly over the
// same grid. The graph keeps a nova miss near 0.05 s, and the rate keeps
// the server's one worker busy about a fifth of the time, so queueing
// adds little to a miss, while a run still holds forty nova misses per
// workload.
const (
	serveVertices = 5000
	serveRate     = 40.0 // jobs offered per second in the measured loop
	hitShare      = 0.8  // repeats of warmed grid cells
	ladderJobs    = 100  // jobs per SLO ladder rung: ten beyond the p90
	sloLimitX     = 4    // SLO p90 limit, in unloaded nova miss medians
	// serveSetupReps replaces setupReps here: set-up takes milliseconds,
	// so more repetitions steady its median.
	serveSetupReps = 41
)

// gridEngines and gridWorkloads span the served cell grid.
var (
	gridEngines   = []string{"nova", "polygraph", "ligra"}
	gridWorkloads = []string{"bfs", "sssp", "pr"}
)

// ladder is the fixed set of offered rates, as multiples of serveRate,
// at which the traced run probes the latency SLO.
var ladder = []float64{0.5, 1, 2, 4, 8}

type cellReq struct {
	engine, workload string
	root             uint32
}

func (c cellReq) key() string { return fmt.Sprintf("%s/%s/%d", c.engine, c.workload, c.root) }

// engineCell is one RunWorkload call the server made, timed from outside
// by the engine wrapper the benchmark installs.
type engineCell struct {
	phase    string
	engine   string
	workload string
	root     graph.VertexID
	g        *graph.CSR
	dt       float64
	dumpJSON float64
	props    []program.Prop
	bag      map[string]float64
	partial  bool
	err      error
}

// timedEngine wraps a served engine and records each RunWorkload call.
type timedEngine struct {
	harness.Engine
	s *serveRun
}

func (e timedEngine) RunWorkload(ctx context.Context, w harness.Workload) (*harness.Report, error) {
	t0 := time.Now()
	rep, err := e.Engine.RunWorkload(ctx, w)
	c := engineCell{engine: e.Name(), workload: w.Name, root: w.Root, g: w.G, dt: time.Since(t0).Seconds(), err: err}
	if rep != nil {
		c.props, c.bag, c.partial = rep.Props, rep.Metrics, rep.Partial
		if rep.Dump != nil && e.s.timeDump() {
			t1 := time.Now()
			_ = rep.Dump.WriteJSON(io.Discard)
			c.dumpJSON = time.Since(t1).Seconds()
		}
	}
	e.s.mu.Lock()
	c.phase = e.s.phase
	e.s.cells = append(e.s.cells, c)
	e.s.mu.Unlock()
	return rep, err
}

// jobOut is one job's client-side view.
type jobOut struct {
	req      cellReq
	lat      float64 // seconds from due time to fetched result
	late     float64 // seconds the generator sent after the due time
	cached   bool
	rejected bool
	body     []byte
	err      error
}

type serveRun struct {
	o       *options
	seeds   seeds
	rng     *rand.Rand
	path    string
	srv     *service.Server
	h       http.Handler
	tr      *tracer
	tal     *tally
	roots   []uint32 // fresh roots, consumed in order
	hot     []cellReq
	fill    map[string][]byte // hot cell -> body of the miss that filled the cache
	mu      sync.Mutex
	phase   string
	spans   bool // record spans around the HTTP calls and time dump rendering
	cells   []engineCell
	checked int // engine cells already verified
}

func (s *serveRun) timeDump() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spans
}

func (s *serveRun) setPhase(p string, spans bool) {
	s.mu.Lock()
	s.phase, s.spans = p, spans
	s.mu.Unlock()
}

// setup builds the flat container, starts a server and registers the
// graph through the HTTP handler.
func (s *serveRun) setup(rep int) error {
	n := serveVertices
	if s.o.small {
		n = 600
	}
	s.path = filepath.Join(s.o.work, fmt.Sprintf("serve-%d.csr", rep))
	// The graph's generator seed is the one cmd/novad loadtest uses; the
	// benchmark seed picks roots, mapping and arrivals.
	st := graph.NewUniformStream("serve", n, 8, 64, 42)
	if err := s.tr.do("graph.build_file_s", -1, func() error {
		_, err := graph.BuildCSRFile(s.path, st, graph.BuildOptions{})
		return err
	}); err != nil {
		return fmt.Errorf("building container: %w", err)
	}
	// One worker leaves a CPU to the request path, so hit latency measures
	// the cache rather than contention with a running simulation.
	s.srv = service.NewServer(service.Config{Workers: 1, Backlog: 4096, CacheEntries: 4096, JobRecords: 1 << 16})
	s.srv.SetEngineBuilder(func(req *service.JobRequest, obs *sim.Interrupt) (harness.Engine, error) {
		e, err := service.BuildEngine(req, obs)
		if err != nil {
			return nil, err
		}
		return timedEngine{e, s}, nil
	})
	s.h = s.srv.Handler()
	return s.tr.do("service.register_s", -1, func() error {
		body := fmt.Sprintf(`{"name":"g","path":%q}`, s.path)
		rr := s.call("POST", "/graphs", []byte(body))
		if rr.Code != http.StatusCreated {
			return fmt.Errorf("register: %d %s", rr.Code, rr.Body.String())
		}
		return nil
	})
}

func (s *serveRun) teardown() {
	s.srv.Close()
	os.Remove(s.path)
}

func (s *serveRun) call(method, target string, body []byte) *httptest.ResponseRecorder {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	rr := httptest.NewRecorder()
	s.h.ServeHTTP(rr, httptest.NewRequest(method, target, r))
	return rr
}

// span times f as a span when the current phase records spans.
func (s *serveRun) span(name string, parent int, f func()) {
	if parent < 0 {
		f()
		return
	}
	id := s.tr.begin(name, parent)
	f()
	s.tr.end(id)
}

// job submits one cell, waits for it and fetches its result, all through
// the HTTP handler, and checks what came back. wantHit marks a repeat of
// a warmed cell, which the cache must serve.
func (s *serveRun) job(c cellReq, wantHit bool, due time.Time, traced bool) jobOut {
	out := jobOut{req: c}
	parent := -1
	if traced {
		parent = s.tr.begin("job", -1)
		defer s.tr.end(parent)
	}
	root := c.root
	req := service.JobRequest{Engine: c.engine, Workload: c.workload, Graph: "g", Root: &root}
	switch c.engine {
	case "nova":
		req.Nova = &service.NovaOptions{Seed: s.seeds.mapping}
	case "ligra":
		req.Ligra = &service.LigraOptions{Threads: 1}
	}
	body, _ := json.Marshal(req)
	var rr *httptest.ResponseRecorder
	s.span("service.submit", parent, func() { rr = s.call("POST", "/jobs", body) })
	switch rr.Code {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusServiceUnavailable:
		out.rejected = true
		out.err = fmt.Errorf("%s: rejected (503)", c.key())
		return out
	default:
		out.err = fmt.Errorf("%s: submit: %d %s", c.key(), rr.Code, rr.Body.String())
		return out
	}
	var st service.JobStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		out.err = fmt.Errorf("%s: submit response: %w", c.key(), err)
		return out
	}
	out.cached = st.Cached
	if st.State != service.JobDone {
		s.span("service.done", parent, func() {
			s.call("GET", "/jobs/"+st.ID+"/stream?interval_ms=3600000", nil)
		})
	}
	s.span("service.result", parent, func() { rr = s.call("GET", "/jobs/"+st.ID+"/result", nil) })
	out.lat = time.Since(due).Seconds()
	if rr.Code != http.StatusOK {
		out.err = fmt.Errorf("%s: result: %d %s", c.key(), rr.Code, rr.Body.String())
		return out
	}
	out.body = rr.Body.Bytes()
	var res service.JobResult
	if err := json.Unmarshal(out.body, &res); err != nil {
		out.err = fmt.Errorf("%s: result body: %w", c.key(), err)
	} else if res.Partial {
		out.err = fmt.Errorf("%s: partial result (%s)", c.key(), res.StopReason)
	} else if wantHit && !out.cached {
		out.err = fmt.Errorf("%s: repeat of a warmed cell missed the cache", c.key())
	} else if out.cached && !bytes.Equal(out.body, s.fill[c.key()]) {
		out.err = fmt.Errorf("%s: cache hit differs from the body that filled the cache", c.key())
	}
	return out
}

func (s *serveRun) freshRoot() uint32 {
	r := s.roots[0]
	s.roots = s.roots[1:]
	return r
}

type arrival struct {
	at  time.Duration
	req cellReq
	hit bool
}

// schedule draws n open-loop arrivals at the given rate: an exact share
// of hits on the warmed grid cells, the rest fresh-root cells taken from
// the grid in turn, in seeded order with exponential gaps.
func (s *serveRun) schedule(n int, rate float64) []arrival {
	hits := int(float64(n)*hitShare + 0.5)
	var as []arrival
	for i := range n {
		if i < hits {
			as = append(as, arrival{req: s.hot[s.rng.Intn(len(s.hot))], hit: true})
			continue
		}
		c := s.hot[(i-hits)%len(s.hot)]
		c.root = s.freshRoot()
		as = append(as, arrival{req: c})
	}
	s.rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
	var t float64
	for i := range as {
		t += s.rng.ExpFloat64() / rate
		as[i].at = time.Duration(t * float64(time.Second))
	}
	return as
}

// openLoop sends every arrival at its due time, whatever the state of
// earlier jobs, and waits for all of them.
func (s *serveRun) openLoop(as []arrival, traced bool) []jobOut {
	outs := make([]jobOut, len(as))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range as {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		late := time.Since(due).Seconds()
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = s.job(a.req, a.hit, due, traced)
			outs[i].late = late
		}()
	}
	wg.Wait()
	return outs
}

// verifyCells checks the engine cells recorded since the last call:
// complete runs, and oracle-equal results for every bfs and sssp cell.
func (s *serveRun) verifyCells() {
	s.mu.Lock()
	cells := s.cells[s.checked:]
	s.checked = len(s.cells)
	s.mu.Unlock()
	for i, c := range cells {
		err := c.err
		if err == nil && c.partial {
			err = fmt.Errorf("partial run")
		}
		if err == nil && (c.workload == "bfs" || c.workload == "sssp") {
			if s.o.corrupt && i == 0 && len(c.props) > 0 {
				c.props[0]++
			}
			err = nova.Verify(c.workload, c.g, c.root, c.props)
		}
		if err != nil {
			err = fmt.Errorf("%s/%s/%d: %w", c.engine, c.workload, c.root, err)
		}
		s.tal.op(err)
	}
}

// count tallies the jobs and returns how many were rejected with a 503.
func (s *serveRun) count(outs []jobOut) (rejects int) {
	for _, j := range outs {
		s.tal.op(j.err)
		if j.rejected {
			rejects++
		}
	}
	return rejects
}

// novaCells returns the nova cells the server ran in phase p.
func (s *serveRun) novaCells(p string) []engineCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []engineCell
	for _, c := range s.cells {
		if c.phase == p && c.engine == "nova" {
			out = append(out, c)
		}
	}
	return out
}

func runServe(ctx context.Context, o *options) (*outcome, error) {
	s := &serveRun{o: o, seeds: deriveSeeds(o.seed), tr: newTracer(), tal: &tally{}, fill: map[string][]byte{}}
	s.rng = rand.New(rand.NewSource(s.seeds.roots))
	out := newOutcome()
	out.tally, out.tracer = s.tal, s.tr

	var setupS []float64
	for rep := range serveSetupReps {
		if rep > 0 {
			s.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := s.setup(rep); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.teardown()
	out.m["setup_s"] = median(setupS)
	out.setupSamples = setupS

	entry, err := s.srv.Registry().Acquire("g")
	if err != nil {
		return nil, err
	}
	g := entry.Graph()
	for _, v := range s.rng.Perm(g.NumVertices()) {
		if g.OutDegree(graph.VertexID(v)) > 0 {
			s.roots = append(s.roots, uint32(v))
		}
	}
	entry.Release()

	// Warm-up: fill the cache with the grid cells, one at a time; the nova
	// cells' latencies are the unloaded miss baseline of the SLO limit.
	s.setPhase("warm", false)
	var unloaded []float64
	for _, e := range gridEngines {
		for _, w := range gridWorkloads {
			c := cellReq{e, w, s.freshRoot()}
			j := s.job(c, false, time.Now(), false)
			s.tal.op(j.err)
			if j.err == nil {
				s.fill[c.key()] = j.body
				if e == "nova" {
					unloaded = append(unloaded, j.lat)
				}
			}
			s.hot = append(s.hot, c)
		}
	}
	s.verifyCells()

	// A traced run splits its seconds between the untraced and the traced
	// loop, which trace.overhead_s compares.
	phase := o.seconds
	if o.trace {
		phase /= 2
	}
	n := int(serveRate*phase.Seconds() + 0.5)
	s.setPhase("main", false)
	main := s.openLoop(s.schedule(n, serveRate), false)
	rejects := s.count(main)
	s.verifyCells()
	var lat, hitLat, late []float64
	missLat := map[string][]float64{} // nova miss latencies by workload
	for _, j := range main {
		late = append(late, j.late)
		if j.err != nil {
			continue
		}
		lat = append(lat, j.lat)
		switch {
		case j.cached:
			hitLat = append(hitLat, j.lat)
		case j.req.engine == "nova":
			missLat[j.req.workload] = append(missLat[j.req.workload], j.lat)
		}
	}
	// The nova cells' figures are taken per workload (bfs, sssp and pr
	// differ several-fold in cost) and combined with a geometric mean, so
	// the mix of workloads among a run's misses does not move them.
	cells := s.novaCells("main")
	cellS, rates, nsPerEvent, cyc := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var events float64
	var bags []map[string]float64
	for _, c := range cells {
		ev := c.bag[core.MetricEventsExecuted]
		cellS[c.workload] = append(cellS[c.workload], c.dt)
		rates[c.workload] = append(rates[c.workload], ev/c.dt)
		nsPerEvent[c.workload] = append(nsPerEvent[c.workload], c.dt/ev*1e9)
		cyc[c.workload] = append(cyc[c.workload], c.bag[core.MetricCycles])
		events += ev
		bags = append(bags, c.bag)
		out.cellSamples = append(out.cellSamples, c.dt)
	}
	cellP50 := geoMedian(cellS)
	out.m["cell_s_p50"] = cellP50
	out.m["sim_events_per_s"] = geoMedian(rates)
	var cycles float64 // one median nova cell per workload
	for _, xs := range cyc {
		cycles += median(xs)
	}
	out.m["sim_cycles"] = cycles
	out.m["job_p50_ms"] = median(lat) * 1e3
	out.m["job_p90_ms"] = quantile(lat, 0.9) * 1e3
	out.m["hit_p50_ms"] = median(hitLat) * 1e3
	out.m["miss_p50_ms"] = geoMedian(missLat) * 1e3
	out.m["loadgen.late_ms_p90"] = quantile(late, 0.9) * 1e3
	out.m["service.hit_rate"] = float64(len(hitLat)) / float64(max(1, len(main)))
	out.m["sim.events"] = events
	out.m["sim.ns_per_event"] = geoMedian(nsPerEvent)
	out.m["samples.cells"] = float64(len(cells))
	out.m["samples.jobs"] = float64(len(lat))
	out.m["samples.hits"] = float64(len(hitLat))
	out.m["samples.misses"] = float64(countAll(missLat))
	modelledCounts(out.m, bags)
	out.samples["jobs"], out.samples["hits"], out.samples["misses"], out.samples["cells"] = len(lat), len(hitLat), countAll(missLat), len(cells)
	if !tailSupported(len(lat), 0.9) {
		fmt.Fprintf(os.Stderr, "perfbench: %d jobs leave fewer than ten beyond job_p90_ms\n", len(lat))
	}

	if o.trace {
		s.setPhase("traced", true)
		rejects += s.count(s.openLoop(s.schedule(n, serveRate), true))
		s.verifyCells()
		tcell := map[string][]float64{}
		var dumpS []float64
		for _, c := range s.novaCells("traced") {
			tcell[c.workload] = append(tcell[c.workload], c.dt)
			dumpS = append(dumpS, c.dumpJSON)
		}
		ms := func(name string) float64 { return median(s.tr.durations(name)) * 1e3 }
		out.m["service.submit_ms_p50"] = ms("service.submit")
		out.m["service.done_ms_p50"] = ms("service.done")
		out.m["service.result_ms_p50"] = ms("service.result")
		out.m["stats.dump_json_s"] = median(dumpS)
		out.m["trace.cell_s_p50"] = geoMedian(tcell)
		out.m["trace.overhead_s"] = geoMedian(tcell) - cellP50
		limit := sloLimitX * median(unloaded)
		out.m["slo_limit_ms"] = limit * 1e3
		out.m["slo_rate_per_s"] = s.sloRate(limit, out)
	}
	out.m["service.rejects"] = float64(rejects)
	return out, nil
}

// sloRate offers ladderJobs jobs at each rate of the ladder and returns
// the highest rate whose job p90 meets limit with no rejection and whose
// backlog drains within the limit after the last arrival. Rejections at
// a rung fail the rung, not the run.
func (s *serveRun) sloRate(limit float64, out *outcome) float64 {
	jobs := ladderJobs
	if s.o.small {
		jobs = 20
	}
	best := 0.0
	for _, x := range ladder {
		rate := serveRate * x
		s.setPhase("ladder", false)
		as := s.schedule(jobs, rate)
		start := time.Now()
		outs := s.openLoop(as, false)
		drain := time.Since(start).Seconds() - as[len(as)-1].at.Seconds()
		s.verifyCells()
		var lat []float64
		ok := drain <= limit
		for _, j := range outs {
			if j.rejected {
				ok = false
				continue
			}
			s.tal.op(j.err)
			lat = append(lat, j.lat)
		}
		p90 := quantile(lat, 0.9)
		out.samples[fmt.Sprintf("ladder_%g_p90_ms", rate)] = int(p90 * 1e3)
		if ok && p90 <= limit {
			best = rate
		}
	}
	return best
}
