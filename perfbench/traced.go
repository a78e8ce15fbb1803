package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/archivedb"
	"repro/internal/datagen"
	"repro/internal/envmon"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/platforms"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/trace"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A workload that does not exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"datagen.generate_ms", "ms"},
	{"datagen.calls_per_job", "count"},
	{"graph.vertexcut_ms", "ms"},
	{"graph.fragments_ms", "ms"},
	{"graph.replication_factor", "count"},
	{"platforms.run_ms.giraph", "ms"},
	{"platforms.run_ms.powergraph", "ms"},
	{"platforms.run_ms.openg", "ms"},
	{"engine.self_ms", "ms"},
	{"trace.roundtrip_ms", "ms"},
	{"trace.records_per_job", "count"},
	{"monitor.assemble_ms", "ms"},
	{"monitor.ops_per_job", "count"},
	{"monitor.env_samples_per_job", "count"},
	{"metrics.derive_ms", "ms"},
	{"archive.encode_ms", "ms"},
	{"archive.bytes_per_job", "B"},
	{"archivedb.put_ms", "ms"},
	{"archivedb.records_per_fsync", "count"},
	{"archivedb.wal_bytes_per_job", "B"},
	{"archivedb.segment_bytes_per_job", "B"},
	{"archivedb.open_ms", "ms"},
	{"archivedb.segment_tail_reads_per_agg", "count"},
	{"archivedb.segment_full_reads_per_agg", "count"},
	{"service.store_put_ms", "ms"},
	{"service.store_open_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.closure_gap_pct", "%"},
	{"http.submit_ms", "ms"},
	{"http.status_ms", "ms"},
	{"http.archive_ms", "ms"},
	{"http.query_ms", "ms"},
	{"http.query_index_ms", "ms"},
	{"http.viz_ms", "ms"},
	{"http.query2_ms", "ms"},
	{"querycache.hit_ratio", "ratio"},
	{"respcache.hit_ratio", "ratio"},
	{"http.not_modified_ratio", "ratio"},
	{"query.parse_us", "us"},
	{"query.select_us", "us"},
	{"query.segment_decode_ms", "ms"},
	{"query.aggregate_ms", "ms"},
	{"query.merge_ms", "ms"},
	{"query.prune_ratio", "ratio"},
	{"query.rows_per_result", "count"},
	{"shard.route_overhead_ms", "ms"},
	{"shard.replicate_ms", "ms"},
	{"shard.query2_fanout_ms", "ms"},
	{"shard.retries", "count"},
	{"shard.read_repairs", "count"},
	{"shard.hints_recorded", "count"},
	{"trace.overhead_pct", "%"},
}

// span is one timed call into a layer, made from the benchmark's own
// code. Times are microseconds since the traced phase began; Parent is
// the index of the enclosing span, -1 for none; Req groups the spans of
// one job.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how jobs run untraced in the overhead comparison.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration((now - t.spans[i].Start) * 1e3)
}

// layers collects per-layer samples by metric name.
type layers struct {
	mu sync.Mutex
	m  map[string]*samples
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	s, ok := l.m[name]
	if !ok {
		s = &samples{}
		l.m[name] = s
	}
	l.mu.Unlock()
	s.add(v)
}

func (l *layers) median(name string) float64 {
	l.mu.Lock()
	s, ok := l.m[name]
	l.mu.Unlock()
	if !ok {
		return 0
	}
	return median(s.values())
}

type datasetKey struct {
	vertices, edges, seed int64
}

// direct makes the executor's calls itself, in the executor's order —
// datagen.Generate (cached per dataset, as the executor does),
// platforms.RunContext, service.Store.Put — with a span around each.
// Each job is then broken down further by calling the graph, trace,
// monitor, metrics, archive and archivedb layers again on the job's own
// inputs and outputs.
type direct struct {
	tr    *tracer
	store *service.Store
	side  *archivedb.DB // takes the extra archivedb.Put of each traced job
	l     *layers

	seq       atomic.Int64
	generated atomic.Int64
	dsMu      sync.Mutex
	datasets  map[datasetKey]*datagen.Dataset
}

// dataset returns the job's graph and how long generating it took (0
// when it was cached).
func (d *direct) dataset(req service.JobRequest, tr *tracer, parent int, n int64) (*datagen.Dataset, time.Duration, error) {
	key := datasetKey{req.Vertices, req.Edges, req.Seed}
	d.dsMu.Lock()
	defer d.dsMu.Unlock()
	if ds, ok := d.datasets[key]; ok {
		return ds, 0, nil
	}
	s := tr.begin("datagen.Generate", parent, n)
	ds, err := datagen.Generate(datasetConfig(req))
	took := tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	d.generated.Add(1)
	d.l.add("datagen.generate_ms", ms(took))
	d.datasets[key] = ds
	return ds, took, nil
}

// hostParallelism is the per-job engine parallelism the executor picks
// for its two workers.
func hostParallelism() int {
	if p := runtime.NumCPU() / 2; p > 1 {
		return p
	}
	return 1
}

func (d *direct) job(req service.JobRequest) (string, *service.Summary, time.Duration, error) {
	n := d.seq.Add(1)
	id := fmt.Sprintf("traced-%05d", n)
	tr := d.tr
	start := time.Now()
	root := tr.begin("job", -1, n)
	ds, genD, err := d.dataset(req, tr, root, n)
	if err != nil {
		return "", nil, 0, err
	}
	var recs []trace.Record
	var envs []envmon.Sample
	spec := platformSpec(req, ds, id)
	spec.HostParallelism = hostParallelism()
	spec.RecordSink = func(r trace.Record) { recs = append(recs, r) }
	spec.SampleSink = func(s envmon.Sample) { envs = append(envs, s) }
	s := tr.begin("platforms.RunContext", root, n)
	out, err := platforms.RunContext(context.Background(), spec)
	runD := tr.end(s)
	if err != nil {
		return "", nil, 0, err
	}
	sum := summaryOf(req, out)
	s = tr.begin("service.Store.Put", root, n)
	err = d.store.Put(out.Job, sum)
	putD := tr.end(s)
	tr.end(root)
	lat := time.Since(start)
	if err != nil {
		return "", nil, 0, err
	}
	d.l.add("platforms.run_ms."+strings.ToLower(req.Platform), ms(runD))
	d.l.add("service.store_put_ms", ms(putD))
	d.l.add("layers_ms", ms(genD+runD+putD))
	if err := d.breakDown(tr, n, req, ds, out, sum, recs, envs, runD); err != nil {
		return "", nil, 0, err
	}
	return id, &sum, lat, nil
}

// breakDown times the layers inside platforms.RunContext and
// service.Store.Put by calling each one again on this job's data.
func (d *direct) breakDown(tr *tracer, n int64, req service.JobRequest, ds *datagen.Dataset,
	out *platforms.Output, sum service.Summary, recs []trace.Record, envs []envmon.Sample, runD time.Duration) error {
	inner := time.Duration(0)
	if req.Platform == "PowerGraph" {
		cfg := platforms.PowerGraphPaperConfig(ds)
		k := platforms.DAS5Config().Nodes
		s := tr.begin("graph.NewVertexCut", -1, n)
		vc := graph.NewVertexCut(ds.Graph.NumVertices(), ds.Edges, k, cfg.CutStrategy)
		vcD := tr.end(s)
		s = tr.begin("graph.BuildFragments", -1, n)
		graph.BuildFragments(ds.Graph.NumVertices(), ds.Edges, vc, !ds.Graph.Directed())
		frD := tr.end(s)
		d.l.add("graph.vertexcut_ms", ms(vcD))
		d.l.add("graph.fragments_ms", ms(frD))
		d.l.add("graph.replication_factor", vc.ReplicationFactor())
		inner += vcD + frD
	}

	s := tr.begin("trace.Encode+Parse", -1, n)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, recs); err != nil {
		return err
	}
	parsed, err := trace.Parse(&buf)
	trD := tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("monitor.Assemble", -1, n)
	job, err := monitor.Assemble(out.Job.ID, out.Job.Platform, parsed, envs)
	monD := tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("metrics.derive", -1, n)
	metrics.StandardRules().Apply(job)
	_, err = metrics.AnnotateDomainBreakdown(job)
	metD := tr.end(s)
	if err != nil {
		return err
	}
	ops := 0
	job.Root.Walk(func(*archive.Operation) { ops++ })
	d.l.add("trace.roundtrip_ms", ms(trD))
	d.l.add("trace.records_per_job", float64(len(recs)))
	d.l.add("monitor.assemble_ms", ms(monD))
	d.l.add("monitor.ops_per_job", float64(ops))
	d.l.add("monitor.env_samples_per_job", float64(len(envs)))
	d.l.add("metrics.derive_ms", ms(metD))
	d.l.add("engine.self_ms", ms(runD-inner-trD-monD-metD))

	// The record Store.Put writes: summary, archive, write version.
	s = tr.begin("archive.encode", -1, n)
	payload, err := json.Marshal(struct {
		Summary service.Summary `json:"summary"`
		Job     *archive.Job    `json:"job"`
		Version uint64          `json:"version,omitempty"`
	}{sum, out.Job, 1})
	encD := tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("archivedb.Put", -1, n)
	err = d.side.Put(out.Job.ID, payload, archivedb.IndexMeta{})
	dbD := tr.end(s)
	if err != nil {
		return err
	}
	d.l.add("archive.encode_ms", ms(encD))
	d.l.add("archive.bytes_per_job", float64(len(payload)))
	d.l.add("archivedb.put_ms", ms(dbD))
	return nil
}

// overheadSpecs is one job per platform of the workload's mix.
func overheadSpecs(r *run) []service.JobRequest {
	switch r.wl.name {
	case "jobs-hot":
		return r.hotSpecs[:len(jobMix)]
	case "analytics":
		return r.smallSpecs[:len(jobMix)]
	}
	var out []service.JobRequest
	for m := range jobMix {
		out = append(out, coldSpec(r, 98, m, m))
	}
	return out
}

// overheadPct is the cost of tracing: the job path's generate and run
// steps made serially, alternately with spans and record sinks on and
// off, as the percentage the traced runs took longer.
func (d *direct) overheadPct(specs []service.JobRequest) (float64, error) {
	var on, off float64
	for _, req := range specs {
		if _, _, err := d.dataset(req, nil, -1, 0); err != nil {
			return 0, err
		}
		var a, b []float64
		for rep := 0; rep < 6; rep++ {
			var tr *tracer
			if rep%2 == 0 {
				tr = &tracer{t0: time.Now()}
			}
			start := time.Now()
			root := tr.begin("job", -1, 0)
			ds, _, err := d.dataset(req, tr, root, 0)
			if err != nil {
				return 0, err
			}
			spec := platformSpec(req, ds, "overhead")
			spec.HostParallelism = hostParallelism()
			var recs []trace.Record
			var envs []envmon.Sample
			if tr != nil {
				spec.RecordSink = func(r trace.Record) { recs = append(recs, r) }
				spec.SampleSink = func(s envmon.Sample) { envs = append(envs, s) }
			}
			s := tr.begin("platforms.RunContext", root, 0)
			_, err = platforms.RunContext(context.Background(), spec)
			tr.end(s)
			tr.end(root)
			if err != nil {
				return 0, err
			}
			if tr != nil {
				a = append(a, ms(time.Since(start)))
			} else {
				b = append(b, ms(time.Since(start)))
			}
		}
		on += median(a)
		off += median(b)
	}
	return ratio(on-off, off) * 100, nil
}

// summaryOf is the summary the executor publishes for a finished run.
func summaryOf(req service.JobRequest, out *platforms.Output) service.Summary {
	ops := 0
	out.Job.Root.Walk(func(*archive.Operation) { ops++ })
	sum := service.Summary{
		ID: out.Job.ID, Platform: out.Job.Platform, Algorithm: req.Algorithm,
		Runtime: out.Runtime, Supersteps: out.Supersteps, Operations: ops,
		SetupPercent:      out.Breakdown.SetupPercent(),
		IOPercent:         out.Breakdown.IOPercent(),
		ProcessingPercent: out.Breakdown.ProcessingPercent(),
		ReplicationFactor: out.ReplicationFactor,
	}
	for _, me := range out.ModelErrors {
		sum.ModelErrors = append(sum.ModelErrors, fmt.Sprintf("%v", me))
	}
	return sum
}

// counters are the server-side counters read around the measured phase.
type counters struct {
	qHits, qMisses, rHits, rMisses float64
	groupRecords, groupFsyncs      float64
	tailReads, fullReads           float64
	failovers, repairs, hints      float64
}

func readCounters(hc *http.Client, st *stack) (counters, error) {
	var c counters
	for _, n := range st.nodes {
		m, err := scrape(hc, n.url)
		if err != nil {
			return c, err
		}
		c.qHits += m["granula_querycache_hits_total"]
		c.qMisses += m["granula_querycache_misses_total"]
		c.rHits += m["granula_respcache_hits_total"]
		c.rMisses += m["granula_respcache_misses_total"]
		stats := n.db.Stats()
		c.groupRecords += float64(stats.GroupCommitRecords)
		c.groupFsyncs += float64(stats.GroupCommitFsyncs)
		c.tailReads += float64(stats.ColSegTailReads)
		c.fullReads += float64(stats.ColSegFullReads)
		if n.heal != nil {
			rec, _ := n.heal.Hints()
			c.hints += float64(rec)
		}
	}
	if st.router != nil {
		c.failovers = float64(st.router.Metrics().Failovers())
		c.repairs = float64(st.router.Metrics().Repairs())
	}
	return c, nil
}

// scrape reads the unlabelled samples of a /metrics exposition.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// tracedRun is the --trace 1 run: the workload as measured end to end
// (first half of the time, with the replicator timed), then the traced
// phase (second half), where the benchmark makes the job path's calls
// itself and serves reads from service.NewServer(nil, store, nil) on
// the same store.
func tracedRun(r *run, dir string) (*result, error) {
	half := time.Duration(r.cfg.seconds * float64(time.Second) / 2)
	l := &layers{m: map[string]*samples{}}
	l.add("archivedb.open_ms", ms(r.st.open.db))
	l.add("service.store_open_ms", ms(r.st.open.store))

	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	before, err := readCounters(hc, r.st)
	if err != nil {
		return nil, err
	}
	r.drive(half)
	after, err := readCounters(hc, r.st)
	if err != nil {
		return nil, err
	}
	ucl := r.cl
	jobP50 := median(r.jobs.values())
	nJobs := float64(r.jobs.len())
	nAggs := float64(r.aggs.len())
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v} }
	set("service.polls_per_job", ratio(float64(ucl.polls.Load()), nJobs))
	for _, ep := range []string{"submit", "status", "archive", "query", "query_index", "viz", "query2"} {
		set("http."+ep+"_ms", median(ucl.endpoint(ep).values()))
	}
	set("querycache.hit_ratio", ratio(after.qHits-before.qHits, after.qHits-before.qHits+after.qMisses-before.qMisses))
	set("respcache.hit_ratio", ratio(after.rHits-before.rHits, after.rHits-before.rHits+after.rMisses-before.rMisses))
	set("http.not_modified_ratio", ratio(float64(ucl.notModified.Load()), float64(ucl.endpoint("archive").len())))
	set("archivedb.records_per_fsync", ratio(after.groupRecords-before.groupRecords, after.groupFsyncs-before.groupFsyncs))
	set("archivedb.segment_tail_reads_per_agg", ratio(after.tailReads-before.tailReads, nAggs))
	set("archivedb.segment_full_reads_per_agg", ratio(after.fullReads-before.fullReads, nAggs))
	set("query.prune_ratio", ratio(float64(ucl.pruned.Load()), float64(ucl.pruned.Load()+ucl.scanned.Load())))
	archived := float64(r.st.storedJobs())
	var wal, seg float64
	for _, n := range r.st.nodes {
		w := float64(n.db.Stats().WALBytes)
		wal += w
		seg += float64(n.diskBytes()) - w
	}
	set("archivedb.wal_bytes_per_job", ratio(wal, archived))
	set("archivedb.segment_bytes_per_job", ratio(seg, archived))
	if r.wl.cluster {
		var repl []float64
		for _, n := range r.st.nodes {
			repl = append(repl, n.timed.took.values()...)
		}
		set("shard.replicate_ms", median(repl))
		set("shard.retries", after.failovers-before.failovers)
		set("shard.read_repairs", after.repairs-before.repairs)
		set("shard.hints_recorded", after.hints-before.hints)
		r.mu.Lock()
		done := append([]doneJob(nil), r.done...)
		r.mu.Unlock()
		var overhead samples
		r.checkRouting(done, &overhead)
		set("shard.route_overhead_ms", median(overhead.values()))
		fan, err := fanout(hc, r.st)
		if err != nil {
			return nil, err
		}
		set("shard.query2_fanout_ms", fan)
	}

	// The traced phase runs on one store: the node's, or the first
	// shard's for the cluster.
	store := r.st.nodes[0].store
	side, err := archivedb.Open(filepath.Join(dir, "side"), archivedb.Options{})
	if err != nil {
		return nil, err
	}
	defer side.Close()
	tr := &tracer{t0: time.Now()}
	d := &direct{tr: tr, store: store, side: side, l: l, datasets: map[datasetKey]*datagen.Dataset{}}
	if r.wl.warm != nil {
		for _, req := range r.wl.warm(r) {
			if _, _, err := d.dataset(req, tr, -1, 0); err != nil {
				return nil, err
			}
		}
	}
	d.generated.Store(0)
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: service.NewServer(nil, store, nil).Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	r.cl = newClient("http://" + ln.Addr().String())
	defer r.cl.close()
	r.direct = d
	traced := r.drive(half)
	r.direct = nil
	fmt.Fprintf(r.cfg.log, "perfbench: %s traced phase: %d jobs in %.2fs\n", r.wl.name, d.seq.Load(), traced.Seconds())
	set("datagen.calls_per_job", ratio(float64(d.generated.Load()), float64(d.seq.Load())))
	if err := measureQuery(l, store); err != nil {
		return nil, err
	}
	set("service.closure_gap_pct", ratio(jobP50-l.median("layers_ms"), jobP50)*100)
	overhead, err := d.overheadPct(overheadSpecs(r))
	if err != nil {
		return nil, err
	}
	set("trace.overhead_pct", overhead)
	// Everything not set from counters or client timings is the median
	// of the spans recorded for it.
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			v.Value = l.median(pl.name)
		}
		m[pl.name] = metric{v.Value, pl.unit}
	}
	if err := writeSpans(r, tr); err != nil {
		return nil, err
	}
	r.cl = ucl
	r.verify()
	return r.result(m), nil
}

// measureQuery times the query layer directly on the stored jobs and
// their segments, the way /query2 and /jobs/{id}/query use it.
func measureQuery(l *layers, store *service.Store) error {
	db := store.DB()
	ids := store.IDs()
	for i := 0; i < 16; i++ {
		raw := v1Variant(i)
		t := time.Now()
		q, err := query.Parse(raw)
		l.add("query.parse_us", float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		for k := i; k < len(ids); k += 16 {
			sj, ok := store.Get(ids[k])
			if !ok {
				continue
			}
			t := time.Now()
			q.SelectColumns(sj.Cols)
			l.add("query.select_us", float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	for _, raw := range query2Variants {
		t := time.Now()
		q, err := query.Parse(raw)
		l.add("query.parse_us", float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		var decode, agg time.Duration
		partials := make([]query.JobPartial, 0, len(ids))
		for _, id := range ids {
			tail, size, ok, err := db.GetSegmentTail(id, query.SegmentTailHint)
			if err != nil || !ok {
				return fmt.Errorf("segment tail of %s: ok=%v %v", id, ok, err)
			}
			st, err := query.DecodeSegmentStats(tail, size)
			if err != nil {
				return err
			}
			if q.PruneAgainst(st) {
				partials = append(partials, query.PrunedPartial(id))
				continue
			}
			blob, _, err := db.GetSegment(id)
			if err != nil {
				return err
			}
			t := time.Now()
			f, _, err := query.DecodeSegment(blob)
			decode += time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			jp, err := q.AggregateFrame(f)
			agg += time.Since(t)
			if err != nil {
				return err
			}
			partials = append(partials, jp)
		}
		t = time.Now()
		resp, err := q.MergePartials(raw, "jobs", "", partials)
		l.add("query.merge_ms", ms(time.Since(t)))
		if err != nil {
			return err
		}
		l.add("query.segment_decode_ms", ms(decode))
		l.add("query.aggregate_ms", ms(agg))
		l.add("query.rows_per_result", float64(len(resp.Groups)))
	}
	return nil
}

// checkRouting compares, for a sample of done jobs, the bytes the
// router serves with the bytes the owning shard serves directly. When
// overhead is set, the router-minus-direct latency of each pair is
// recorded in it.
func (r *run) checkRouting(done []doneJob, overhead *samples) {
	direct := map[string]*client{}
	for _, n := range r.st.nodes {
		direct[n.id] = newClient(n.url)
		defer direct[n.id].close()
	}
	rc := newClient(r.st.url)
	defer rc.close()
	step := len(done)/10 + 1
	for i := 0; i < len(done); i += step {
		id := done[i].id
		owner := r.st.m.Owners(id)[0].ID
		for _, path := range []string{"/jobs/" + id + "/archive", "/jobs/" + id + "/query?q=" + url.QueryEscape(v1Variant(i))} {
			for rep := 0; rep < 3; rep++ {
				t := time.Now()
				viaRouter, _, err := rc.get("check", path, nil)
				tr := time.Since(t)
				if err != nil {
					r.check(err)
					continue
				}
				t = time.Now()
				fromOwner, _, err := direct[owner].get("check", path, nil)
				td := time.Since(t)
				if err == nil && !bytes.Equal(viaRouter, fromOwner) {
					err = fmt.Errorf("GET %s: router bytes differ from owner %s", path, owner)
				}
				r.check(err)
				if overhead != nil && err == nil {
					overhead.addDur(tr - td)
				}
			}
		}
	}
}

// fanout is the scatter-gather cost of a routed /query2: its latency
// through the router minus the slowest shard's own /internal/query2.
func fanout(hc *http.Client, st *stack) (float64, error) {
	var routed, slowest []float64
	timeGet := func(u string) (time.Duration, error) {
		t := time.Now()
		resp, err := hc.Get(u)
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %d", u, resp.StatusCode)
		}
		return time.Since(t), err
	}
	for rep := 0; rep < 2; rep++ {
		for _, q := range query2Variants {
			d, err := timeGet(st.url + query2Path(q))
			if err != nil {
				return 0, err
			}
			routed = append(routed, ms(d))
			var worst time.Duration
			for _, n := range st.nodes {
				d, err := timeGet(n.url + shard.InternalQuery2Path + "?q=" + url.QueryEscape(q))
				if err != nil {
					return 0, err
				}
				worst = max(worst, d)
			}
			slowest = append(slowest, ms(worst))
		}
	}
	return median(routed) - median(slowest), nil
}

// writeSpans writes the traced phase's spans next to the run files.
func writeSpans(r *run, tr *tracer) error {
	tr.mu.Lock()
	buf, err := json.Marshal(tr.spans)
	tr.mu.Unlock()
	if err != nil {
		return err
	}
	name := filepath.Join(r.cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", r.wl.name, r.cfg.seed))
	return os.WriteFile(name, buf, 0o644)
}
