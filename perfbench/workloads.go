package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// clients is the closed-loop client count: one per core of the 2-core
// host the benchmark is sized for, and never more goroutines than that.
const clients = 2

// sizes scales a workload. The self-test shrinks every field.
type sizes struct {
	hotVertices, hotEdges     int64 // jobs-hot graphs and analytics preload
	hotGraphs                 int   // distinct jobs-hot graphs
	preload                   int   // analytics jobs archived before setup
	smallVertices, smallEdges int64 // analytics submissions
	coldVertices, coldEdges   int64 // cluster-cold graphs, one per job
	setups                    int   // set-ups per run behind setup_s
	analyticsSetups           int
}

var fullSizes = sizes{
	hotVertices: 20_000, hotEdges: 100_000, hotGraphs: 4,
	preload:       200,
	smallVertices: 2_000, smallEdges: 10_000,
	coldVertices: 5_000, coldEdges: 25_000,
	setups: 7, analyticsSetups: 3,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // run files live under here
	size     sizes
	// corrupt alters one served summary and one /query2 body before they
	// are checked; the self-test uses it to prove the checks can fail.
	corrupt bool
	log     io.Writer
}

// workload is one traffic mix against one stack shape.
type workload struct {
	name string
	// cluster selects three shards behind a router over a single node.
	cluster bool
	// warm lists the jobs run at set-up, before timing starts: they fill
	// the executor's dataset cache where jobs share datasets.
	warm func(r *run) []service.JobRequest
	// refs lists the job specs whose reference runs happen before
	// set-up; specs not listed are referenced after the timed phase.
	refs func(r *run) []service.JobRequest
	op   func(w *worker)
}

var workloads = map[string]*workload{
	"jobs-hot": {
		name: "jobs-hot",
		warm: hotWarm,
		refs: hotSpecs,
		op:   hotOp,
	},
	"analytics": {
		name: "analytics",
		warm: smallWarm,
		refs: smallSpecs,
		op:   analyticsOp,
	},
	"cluster-cold": {
		name:    "cluster-cold",
		cluster: true,
		warm:    coldWarm,
		op:      coldOp,
	},
}

// The job mix of the service's own load test: one platform per
// algorithm, so every engine runs.
var jobMix = [3][2]string{{"Giraph", "BFS"}, {"PowerGraph", "PageRank"}, {"OpenG", "WCC"}}

func request(mix int, vertices, edges, seed int64) service.JobRequest {
	return service.JobRequest{
		Platform: jobMix[mix][0], Algorithm: jobMix[mix][1], GraphKind: "social",
		Vertices: vertices, Edges: edges, Seed: seed, Iterations: 10,
	}
}

func graphSeed(seed int64, k int) int64 { return seed*100 + int64(k) + 1 }

func hotSpecs(r *run) []service.JobRequest {
	var out []service.JobRequest
	for g := 0; g < r.cfg.size.hotGraphs; g++ {
		for m := range jobMix {
			out = append(out, request(m, r.cfg.size.hotVertices, r.cfg.size.hotEdges, graphSeed(r.cfg.seed, g)))
		}
	}
	return out
}

func smallSpecs(r *run) []service.JobRequest {
	var out []service.JobRequest
	for g := 0; g < r.cfg.size.hotGraphs; g++ {
		for m := range jobMix {
			out = append(out, request(m, r.cfg.size.smallVertices, r.cfg.size.smallEdges, graphSeed(r.cfg.seed, g)))
		}
	}
	return out
}

// firstPerGraph keeps one spec per dataset: the cheapest job (BFS)
// generates each graph once.
func firstPerGraph(specs []service.JobRequest) []service.JobRequest {
	var out []service.JobRequest
	for i := 0; i < len(specs); i += len(jobMix) {
		out = append(out, specs[i])
	}
	return out
}

func hotWarm(r *run) []service.JobRequest   { return firstPerGraph(hotSpecs(r)) }
func smallWarm(r *run) []service.JobRequest { return firstPerGraph(smallSpecs(r)) }

// v1Variant is the i-th of 16 distinct v1 query strings, covering
// string, numeric, depth and substring predicates, sorts and limits.
func v1Variant(i int) string {
	switch i % 4 {
	case 0:
		return fmt.Sprintf("duration > 0.%03d order by duration desc limit %d", (i*37)%1000, 5+i%20)
	case 1:
		return fmt.Sprintf("actor ~ \"Worker\" and depth >= %d limit %d", i%5, 10+i%50)
	case 2:
		return fmt.Sprintf("mission = \"Superstep\" and start > 0.%02d order by start", i%100)
	default:
		return fmt.Sprintf("depth = %d or duration >= 0.%02d", i%6, (i*13)%100)
	}
}

// query2Variants are the cross-job aggregates. The second half carry
// job.* predicates that zone maps can prune: each skips the segments
// of every job of the other platforms, algorithms or runtimes.
var query2Variants = []string{
	"from jobs group by mission agg count, sum(duration)",
	"from jobs group by job.platform agg count, avg(duration), p95(duration)",
	"from jobs top 5 mission by sum(duration)",
	"from jobs where actor ~ Worker group by actor agg count, max(duration)",
	"from jobs where job.platform = Giraph group by mission agg count, p50(duration)",
	"from jobs where job.platform = OpenG group by actor agg sum(duration)",
	"from jobs where job.algorithm = PageRank group by depth agg count, avg(duration)",
	"from jobs where job.runtime > 400 group by mission agg max(duration)",
}

func query2Path(q string) string { return "/query2?q=" + url.QueryEscape(q) }

// jobs-hot: every job reuses one of a few (dataset, machines,
// partitioner) triples. After a job is done its client looks up each of
// its missions four times, and every 4th cycle runs a cross-job
// aggregate, so each latency percentile has ten samples beyond it in a
// 30 s run. The read-backs are index lookups only: with v1 queries
// among them, read_p99_ms fell in the steep contention tail of those
// queries and swung by a third between runs of the same code. v1
// queries are measured on analytics and cluster-cold.
func hotOp(w *worker) {
	id, ok := w.job(w.next(w.r.hotSpecs))
	if !ok {
		return
	}
	for k := 0; k < 4; k++ {
		w.readMissions(id)
	}
	if w.i%4 == 3 {
		w.agg(w.nextAgg())
	}
}

// analytics: 90% reads over the archived jobs, Zipf-skewed toward
// recent ones; 10% small submissions that invalidate the response cache.
// Of the read operations, 15% are aggregates, 35% index lookups of
// every mission of the job (five requests each), 25% v1 queries, 15%
// archives and 10% visualizations. The many cheap lookups put the read
// median inside their narrow latency band, and put read_p99_ms where
// the archive latencies are dense rather than in their last few
// samples.
func analyticsOp(w *worker) {
	if w.rng.Float64() < 0.10 {
		w.job(w.next(w.r.smallSpecs))
		return
	}
	id := w.r.pickRecent(w.rng)
	switch x := w.rng.Float64(); {
	case x < 0.15:
		w.agg(w.nextAgg())
	case x < 0.50:
		w.readMissions(id)
	case x < 0.75:
		w.read("query", "/jobs/"+id+"/query?q="+url.QueryEscape(v1Variant(int(w.zipf.Uint64()))))
	case x < 0.90:
		w.readArchive(id)
	default:
		w.read("viz", "/jobs/"+id+"/viz/"+[]string{"breakdown", "gantt", "tree"}[w.rng.Intn(3)])
	}
}

// cluster-cold: every job has a graph of its own, so nothing is reused.
// The job is read back through the router (its archive, a v1 query, two
// visualizations, and each mission looked up four times), then a
// scatter-gather aggregate runs. As on analytics, the cheap lookups put
// read_p99_ms where the archive latencies are dense.
func coldOp(w *worker) {
	id, ok := w.job(coldSpec(w.r, w.idx, w.i, (w.i+w.idx)%len(jobMix)))
	if !ok {
		return
	}
	w.read("archive", "/jobs/"+id+"/archive")
	w.read("query", "/jobs/"+id+"/query?q="+url.QueryEscape(v1Variant(int(w.zipf.Uint64()))))
	for k := 0; k < 4; k++ {
		w.readMissions(id)
	}
	w.read("viz", "/jobs/"+id+"/viz/breakdown")
	w.read("viz", "/jobs/"+id+"/viz/tree")
	w.agg(w.nextAgg())
}

// coldSpec is the i-th job of client c: a graph seed no other job uses.
func coldSpec(r *run, c, i, mix int) service.JobRequest {
	seed := r.cfg.seed*1_000_000 + int64(c)*100_000 + int64(i) + 1
	return request(mix, r.cfg.size.coldVertices, r.cfg.size.coldEdges, seed)
}

// coldWarm is one job through the router on a graph of its own: it
// opens the router's and the replicas' connections, and reuses nothing.
func coldWarm(r *run) []service.JobRequest { return []service.JobRequest{coldSpec(r, 99, 0, 0)} }

// doneJob is a completed job with the spec it ran and what it reported.
type doneJob struct {
	id  string
	req service.JobRequest
	sum service.Summary
}

// run is the state of one benchmark run of one workload.
type run struct {
	cfg config
	wl  *workload
	st  *stack
	cl  *client // where the timed phase sends requests
	// direct, when set, runs jobs through the benchmark's own calls into
	// the layers (the traced phase) instead of through the executor.
	direct *direct

	hotSpecs, smallSpecs []service.JobRequest
	refs                 *references

	jobs, reads, aggs samples // client-observed latencies in ms
	attempted, failed atomic.Int64
	phaseID           int64 // measured phases driven so far

	mu     sync.Mutex
	done   []doneJob
	recent []string // archived job IDs, oldest first
	errs   []string // the first few failures, for the log
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

// check counts one verification as an attempted operation that failed
// when err is set.
func (r *run) check(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

func (r *run) addRecent(id string) {
	r.mu.Lock()
	r.recent = append(r.recent, id)
	r.mu.Unlock()
}

// pickRecent draws an archived job, Zipf-skewed toward the newest.
func (r *run) pickRecent(rng *rand.Rand) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.recent)
	if n == 1 {
		return r.recent[0]
	}
	rank := rand.NewZipf(rng, 1.1, 1, uint64(n-1)).Uint64()
	return r.recent[n-1-int(rank)]
}

// worker is one closed-loop client goroutine. Jobs and aggregates are
// taken round-robin, so every run has the same mix: a random draw would
// shift the median of a latency spread over very different job kinds.
type worker struct {
	r     *run
	idx   int
	i     int // operation cycles completed
	jobs  int // jobs submitted
	aggs  int // aggregates issued
	rng   *rand.Rand
	zipf  *rand.Zipf        // over the 16 v1 query variants
	etags map[string]string // archive ETags seen, for If-None-Match
}

// drive runs op on every client goroutine until d has passed and
// returns the wall time the phase took.
func (r *run) drive(d time.Duration) time.Duration {
	r.phaseID++
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(r.cfg.seed*1000 + r.phaseID*10 + int64(c)))
		w := &worker{r: r, idx: c + int(r.phaseID)*clients, rng: rng,
			zipf: rand.NewZipf(rng, 1.3, 1, 15), etags: map[string]string{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r.wl.op(w)
				w.i++
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// next is the worker's next job spec, round-robin from its own offset.
func (w *worker) next(specs []service.JobRequest) service.JobRequest {
	w.jobs++
	return specs[(w.jobs+w.idx)%len(specs)]
}

func (w *worker) nextAgg() string {
	w.aggs++
	return query2Variants[(w.aggs+w.idx)%len(query2Variants)]
}

// job runs one job to done and records its latency.
func (w *worker) job(req service.JobRequest) (string, bool) {
	r := w.r
	r.attempted.Add(1)
	var (
		id  string
		sum *service.Summary
		lat time.Duration
		err error
	)
	if r.direct != nil {
		id, sum, lat, err = r.direct.job(req)
	} else {
		id, sum, lat, err = r.cl.runJob(req)
	}
	if err != nil {
		r.fail(err)
		return "", false
	}
	r.jobs.addDur(lat)
	r.mu.Lock()
	r.done = append(r.done, doneJob{id: id, req: req, sum: *sum})
	r.recent = append(r.recent, id)
	r.mu.Unlock()
	return id, true
}

func (w *worker) read(endpoint, path string) {
	w.r.attempted.Add(1)
	start := time.Now()
	if _, _, err := w.r.cl.get(endpoint, path, nil); err != nil {
		w.r.fail(err)
		return
	}
	w.r.reads.addDur(time.Since(start))
}

// readMissions looks up each domain mission of job id through the
// mission index.
func (w *worker) readMissions(id string) {
	for _, m := range core.DomainMissions {
		w.read("query_index", "/jobs/"+id+"/query?mission="+m)
	}
}

// readArchive fetches a job's archive, revalidating with If-None-Match
// when this client has fetched it before.
func (w *worker) readArchive(id string) {
	w.r.attempted.Add(1)
	var hdr http.Header
	if tag, ok := w.etags[id]; ok {
		hdr = http.Header{"If-None-Match": {tag}}
	}
	start := time.Now()
	_, h, err := w.r.cl.get("archive", "/jobs/"+id+"/archive", hdr)
	if err != nil {
		w.r.fail(err)
		return
	}
	w.r.reads.addDur(time.Since(start))
	if tag := h.Get("ETag"); tag != "" {
		w.etags[id] = tag
	}
}

func (w *worker) agg(q string) {
	w.r.attempted.Add(1)
	start := time.Now()
	if _, err := w.r.cl.query2(query2Path(q)); err != nil {
		w.r.fail(err)
		return
	}
	w.r.aggs.addDur(time.Since(start))
}
