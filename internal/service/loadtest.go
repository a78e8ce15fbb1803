package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/shard"
	"repro/internal/stream"
)

// LoadTestConfig drives RunLoadTest.
type LoadTestConfig struct {
	// BaseURL is the serve endpoint, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Jobs is the total number of jobs to submit.
	Jobs int
	// Concurrency is the number of client goroutines; 0 selects 8.
	Concurrency int
	// Vertices/Edges size each job's graph; 0 selects 2000/10000.
	Vertices int64
	Edges    int64
	// Nodes sizes each job's simulated cluster; 0 selects the default
	// 8-node model. Smaller models shift the per-job cost from CPU
	// toward commit latency, which cluster benches use to isolate the
	// sharding speedup from host CPU contention.
	Nodes int
	// ReadRatio in (0,1) switches to the mixed read/write workload: the
	// configured Jobs are still all submitted, and read requests are
	// interleaved so reads make up this fraction of operations — e.g.
	// 0.9 issues nine reads per submission, the archive-consumer shape
	// the response cache is built for. 0 keeps the legacy flow (each
	// job followed by one fixed read sweep).
	ReadRatio float64
	// QueryVariants is the number of distinct query strings the mixed
	// workload draws from (Zipf-distributed, so a few queries dominate
	// the way real dashboards do); 0 selects 16.
	QueryVariants int
	// Seed makes the mixed workload's operation shuffle and query draws
	// reproducible; 0 selects 1.
	Seed int64
	// StreamRatio in [0,1] routes that fraction of jobs through the live
	// streaming path instead of /jobs: the job's events are pushed in
	// batches through POST /ingest/{id} while a concurrent SSE tail on
	// GET /watch/{id} follows them, and the report gains ingest event
	// throughput plus the batch-send-to-frame tail latency.
	StreamRatio float64
	// StreamEvents is the synthetic event count per streamed job; 0
	// selects 256.
	StreamEvents int
	// Out receives progress lines; nil discards them.
	Out io.Writer
}

// LoadTestResult summarizes one load-test run.
type LoadTestResult struct {
	Jobs   int
	Done   int
	Failed int
	// Failures holds the cause of each failed operation, in the order
	// they failed (the first maxLoadFailures of them), so a failed run
	// explains itself even when Out discards progress lines.
	Failures   []string
	Reads      int
	Requests   int
	Wall       time.Duration
	JobsPerSec float64
	ReqPerSec  float64
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	Max        time.Duration
	// PerShard splits the latency distribution by the serving shard when
	// the target is a cluster router (responses carry shard.ShardHeader);
	// empty against a single node. Sorted by shard ID.
	PerShard []ShardLatency
	// Streaming-mode results (StreamRatio > 0).
	Streamed     int     // jobs driven through /ingest + /watch
	IngestEvents int     // events acked by /ingest
	IngestPerSec float64 // acked events per wall-clock second
	// Tail latency: batch send to SSE frame arrival on the concurrent
	// /watch tail.
	TailP50 time.Duration
	TailP99 time.Duration
	TailMax time.Duration
}

// ShardLatency is one shard's slice of a load test.
type ShardLatency struct {
	Shard    string
	Requests int
	P50      time.Duration
	P99      time.Duration
}

// loadClient is one goroutine's view of the API plus shared counters.
type loadClient struct {
	cfg    LoadTestConfig
	client *http.Client
	// tailClient carries the long-lived SSE connections; no overall
	// timeout, since a healthy tail stays open for the whole stream.
	tailClient *http.Client

	mu           sync.Mutex
	latencies    []time.Duration
	perShard     map[string][]time.Duration // latency by serving shard
	requests     int
	done         int
	failed       int
	failures     []string
	reads        int
	doneIDs      []string // completed job IDs, the targets of mixed reads
	streamed     int
	ingestEvents int
	tailLat      []time.Duration
}

// maxLoadFailures bounds the failure causes a load test keeps.
const maxLoadFailures = 32

// fail counts one failed operation and records its cause.
func (lc *loadClient) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(lc.cfg.Out, "[loadtest] %s\n", msg)
	lc.mu.Lock()
	lc.failed++
	if len(lc.failures) < maxLoadFailures {
		lc.failures = append(lc.failures, msg)
	}
	lc.mu.Unlock()
}

func (lc *loadClient) jobDone(id string) {
	lc.mu.Lock()
	lc.done++
	lc.doneIDs = append(lc.doneIDs, id)
	lc.mu.Unlock()
}

func (lc *loadClient) pickDoneID(rng *rand.Rand) string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if len(lc.doneIDs) == 0 {
		return ""
	}
	return lc.doneIDs[rng.Intn(len(lc.doneIDs))]
}

func (lc *loadClient) record(d time.Duration, shardID string) {
	lc.mu.Lock()
	lc.latencies = append(lc.latencies, d)
	lc.requests++
	if shardID != "" {
		if lc.perShard == nil {
			lc.perShard = map[string][]time.Duration{}
		}
		lc.perShard[shardID] = append(lc.perShard[shardID], d)
	}
	lc.mu.Unlock()
}

func (lc *loadClient) do(method, path string, body any) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, lc.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	resp, err := lc.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	lc.record(time.Since(start), resp.Header.Get(shard.ShardHeader))
	if err != nil {
		return resp, nil, err
	}
	return resp, payload, nil
}

// submitJob submits one job and polls it to completion, returning its
// ID.
func (lc *loadClient) submitJob(i int) (string, error) {
	platform := []string{"Giraph", "PowerGraph", "OpenG"}[i%3]
	algorithm := []string{"BFS", "PageRank", "WCC"}[i%3]
	req := JobRequest{
		Platform:  platform,
		Algorithm: algorithm,
		Vertices:  lc.cfg.Vertices,
		Edges:     lc.cfg.Edges,
		Nodes:     lc.cfg.Nodes,
	}
	var id string
	for {
		resp, payload, err := lc.do("POST", "/jobs", req)
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			time.Sleep(50 * time.Millisecond) // bounded queue pushed back
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return "", fmt.Errorf("submit: %s: %s", resp.Status, payload)
		}
		var sub submitResponse
		if err := json.Unmarshal(payload, &sub); err != nil {
			return "", err
		}
		id = sub.ID
		break
	}

	for {
		resp, payload, err := lc.do("GET", "/jobs/"+id, nil)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %s: %s: %s", id, resp.Status, payload)
		}
		var st JobState
		if err := json.Unmarshal(payload, &st); err != nil {
			return "", err
		}
		if st.Status == StatusFailed {
			return "", fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		if st.Status == StatusDone {
			return id, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runJob submits one job, polls it to completion, then exercises the
// read endpoints (status, archive, indexed query, language query, viz,
// metrics) the way an interactive archive consumer would.
func (lc *loadClient) runJob(i int) error {
	id, err := lc.submitJob(i)
	if err != nil {
		return err
	}

	reads := []string{
		"/jobs/" + id + "/archive",
		"/jobs/" + id + "/query?mission=ProcessGraph",
		"/jobs/" + id + "/query?q=" + "duration+%3E+0.5+order+by+duration+desc+limit+5",
		"/jobs/" + id + "/viz/breakdown",
		"/metrics",
	}
	for _, path := range reads {
		resp, payload, err := lc.do("GET", path, nil)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s: %s", path, resp.Status, payload)
		}
		if len(payload) == 0 {
			return fmt.Errorf("GET %s: empty body", path)
		}
	}
	return nil
}

// syntheticStream builds a well-formed event stream for one synthetic
// job: a root op with sequential worker ops under it, env samples
// sprinkled in, sealed done. Sized to roughly `events` events.
func syntheticStream(events int) []stream.Event {
	if events < 8 {
		events = 8
	}
	out := []stream.Event{{Type: stream.TypeStart, Time: 0, Op: "root", Actor: "Client", Mission: "Job"}}
	t := 0.0
	for len(out) < events-2 {
		op := fmt.Sprintf("op-%d", len(out))
		t += 0.25
		out = append(out, stream.Event{
			Type: stream.TypeStart, Time: t, Op: op, Parent: "root",
			Actor: fmt.Sprintf("Worker-%d", len(out)%4), Mission: "Superstep",
		})
		t += 0.25
		out = append(out, stream.Event{Type: stream.TypeEnd, Time: t, Op: op})
		if len(out)%16 == 0 {
			out = append(out, stream.Event{Type: stream.TypeEnv, Time: t, Node: "node-0", Kind: "cpu", Used: 0.5})
		}
	}
	t += 0.25
	out = append(out, stream.Event{Type: stream.TypeEnd, Time: t, Op: "root"})
	out = append(out, stream.Event{Type: stream.TypeSeal, Time: t, Platform: "Giraph", Algorithm: "BFS", State: stream.StateDone})
	for i := range out {
		out[i].Seq = uint64(i + 1)
	}
	return out
}

// ingestBatch pushes one event batch through POST /ingest, retrying
// backpressure (429) and degraded storage (503) — replays are
// idempotent by the stream contract. The batch's send time is recorded
// under its last sequence number for the tail-latency join.
func (lc *loadClient) ingestBatch(id string, events []stream.Event, sentAt map[uint64]time.Time) error {
	body, err := stream.EncodeEvents(events)
	if err != nil {
		return err
	}
	last := events[len(events)-1].Seq
	for {
		sentAt[last] = time.Now()
		req, err := http.NewRequest("POST", lc.cfg.BaseURL+"/ingest/"+id, bytes.NewReader(body))
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := lc.client.Do(req)
		if err != nil {
			return err
		}
		payload, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		lc.record(time.Since(start), resp.Header.Get(shard.ShardHeader))
		if rerr != nil {
			return rerr
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var ack ingestResponse
			if err := json.Unmarshal(payload, &ack); err != nil {
				return err
			}
			lc.mu.Lock()
			lc.ingestEvents += ack.Accepted
			lc.mu.Unlock()
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(50 * time.Millisecond)
		default:
			return fmt.Errorf("ingest %s: %s: %s", id, resp.Status, payload)
		}
	}
}

// tail follows one job's SSE stream until its seal frame, recording the
// arrival time of every frame ID. ready is closed once the stream is
// attached, so the caller can hold further ingest batches until frames
// will actually be observed live.
func (lc *loadClient) tail(id string, ready chan<- struct{}) (map[uint64]time.Time, error) {
	req, err := http.NewRequest("GET", lc.cfg.BaseURL+"/watch/"+id+"?from=0", nil)
	if err != nil {
		return nil, err
	}
	resp, err := lc.tailClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("watch %s: %s: %s", id, resp.Status, payload)
	}
	close(ready)
	at := map[uint64]time.Time{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sealed := false
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			if seq, perr := strconv.ParseUint(v, 10, 64); perr == nil {
				at[seq] = time.Now()
			}
		} else if v, ok := strings.CutPrefix(line, "event: "); ok && v == "seal" {
			sealed = true
		} else if line == "" && sealed {
			return at, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sealed {
		return at, fmt.Errorf("watch %s: stream ended before seal", id)
	}
	return at, nil
}

// streamJob drives one job through the live path: the first batch opens
// the stream, a concurrent SSE tail follows it, the remaining batches
// are pushed through /ingest, and each batch's send-to-frame gap on the
// tail becomes a tail-latency sample.
func (lc *loadClient) streamJob(op int) error {
	id := fmt.Sprintf("stream-%06d", op)
	events := syntheticStream(lc.cfg.StreamEvents)
	const batch = 64

	sentAt := map[uint64]time.Time{}
	// The first batch opens the stream but always holds the seal (and at
	// least one event) back, so the job is still live when the tail
	// attaches and the remaining batches are observed as real SSE frames.
	n := min(batch, len(events)-1)
	if err := lc.ingestBatch(id, events[:n], sentAt); err != nil {
		return err
	}
	type tailOut struct {
		at  map[uint64]time.Time
		err error
	}
	tailCh := make(chan tailOut, 1)
	ready := make(chan struct{})
	go func() {
		at, err := lc.tail(id, ready)
		tailCh <- tailOut{at, err}
	}()
	select {
	case <-ready:
	case out := <-tailCh:
		if out.err != nil {
			return out.err
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("stream %s: tail never attached", id)
	}
	for off := n; off < len(events); off += batch {
		if err := lc.ingestBatch(id, events[off:min(off+batch, len(events))], sentAt); err != nil {
			return err
		}
	}
	select {
	case out := <-tailCh:
		if out.err != nil {
			return out.err
		}
		lc.mu.Lock()
		for seq, t0 := range sentAt {
			if t1, ok := out.at[seq]; ok && t1.After(t0) {
				lc.tailLat = append(lc.tailLat, t1.Sub(t0))
			}
		}
		lc.streamed++
		lc.mu.Unlock()
	case <-time.After(60 * time.Second):
		return fmt.Errorf("stream %s: tail did not reach the seal", id)
	}
	return nil
}

// queryVariant builds the i-th distinct query-language string of the
// mixed workload. The variants cover the evaluator's dimensions
// (string, numeric, depth, info predicates; sorts; limits) while each
// staying byte-stable, so Zipf repeats of a variant hit both the
// compiled-query cache and the response cache.
func queryVariant(i int) string {
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

// readOnce issues one mixed-workload read: a query-language request
// against a random completed job, with the query drawn Zipf-style from
// the variant pool.
func (lc *loadClient) readOnce(rng *rand.Rand, zipf *rand.Zipf, variants int) error {
	id := lc.pickDoneID(rng)
	if id == "" {
		return fmt.Errorf("no completed job to read")
	}
	q := queryVariant(int(zipf.Uint64()) % variants)
	path := "/jobs/" + id + "/query?q=" + url.QueryEscape(q)
	resp, payload, err := lc.do("GET", path, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, payload)
	}
	lc.mu.Lock()
	lc.reads++
	lc.mu.Unlock()
	return nil
}

// RunLoadTest hammers a running granula-serve instance with concurrent
// jobs and archive reads, and reports client-observed throughput and
// latency. It is the -loadtest mode of cmd/granula-serve. With
// ReadRatio set the operation mix is mostly reads (see LoadTestConfig);
// otherwise every job performs one fixed read sweep after completion.
func RunLoadTest(cfg LoadTestConfig) (*LoadTestResult, error) {
	if cfg.Jobs < 1 {
		cfg.Jobs = 1
	}
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 8
	}
	if cfg.QueryVariants < 1 {
		cfg.QueryVariants = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ReadRatio < 0 || cfg.ReadRatio >= 1 {
		return nil, fmt.Errorf("service: loadtest read ratio %v outside [0,1)", cfg.ReadRatio)
	}
	if cfg.StreamRatio < 0 || cfg.StreamRatio > 1 {
		return nil, fmt.Errorf("service: loadtest stream ratio %v outside [0,1]", cfg.StreamRatio)
	}
	if cfg.StreamEvents < 1 {
		cfg.StreamEvents = 256
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	lc := &loadClient{
		cfg:        cfg,
		client:     &http.Client{Timeout: 60 * time.Second},
		tailClient: &http.Client{},
	}

	// The top nStream job indices are driven through the streaming path;
	// in mixed mode job 0 stays a normal submission so early reads always
	// have a completed executor job to target.
	nStream := int(float64(cfg.Jobs)*cfg.StreamRatio + 0.5)
	if cfg.ReadRatio > 0 && nStream >= cfg.Jobs {
		nStream = cfg.Jobs - 1
	}
	if nStream > 0 {
		fmt.Fprintf(cfg.Out, "[loadtest] streaming %d/%d jobs through /ingest + /watch (%d events each)\n",
			nStream, cfg.Jobs, cfg.StreamEvents)
	}

	// The operation schedule: every job submission, plus — in mixed mode
	// — enough reads that they make up ReadRatio of all operations,
	// shuffled deterministically. op >= 0 is a submission of job op; -1
	// is a read.
	ops := make([]int, 0, cfg.Jobs)
	// In mixed mode job 0 is submitted synchronously before the
	// schedule starts, so early reads always have a completed target.
	firstScheduled := 0
	if cfg.ReadRatio > 0 {
		firstScheduled = 1
	}
	for i := firstScheduled; i < cfg.Jobs; i++ {
		ops = append(ops, i)
	}
	if cfg.ReadRatio > 0 {
		nReads := int(float64(cfg.Jobs)*cfg.ReadRatio/(1-cfg.ReadRatio) + 0.5)
		for i := 0; i < nReads; i++ {
			ops = append(ops, -1)
		}
		rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(ops), func(i, j int) {
			ops[i], ops[j] = ops[j], ops[i]
		})
		fmt.Fprintf(cfg.Out, "[loadtest] mixed workload: %d submissions, %d reads (ratio %.2f), %d query variants\n",
			cfg.Jobs, nReads, cfg.ReadRatio, cfg.QueryVariants)
	}

	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w) + 1))
			zipf := rand.NewZipf(rng, 1.3, 1, uint64(cfg.QueryVariants-1))
			for op := range work {
				switch {
				case op < 0:
					if err := lc.readOnce(rng, zipf, cfg.QueryVariants); err != nil {
						lc.fail("read: %v", err)
					}
				case op >= cfg.Jobs-nStream:
					if err := lc.streamJob(op); err != nil {
						lc.fail("stream job %d: %v", op, err)
						continue
					}
					// The sealed stream is a normal archived job, so it
					// joins the mixed-read target pool.
					lc.jobDone(fmt.Sprintf("stream-%06d", op))
				case cfg.ReadRatio > 0:
					id, err := lc.submitJob(op)
					if err != nil {
						lc.fail("job %d: %v", op, err)
						continue
					}
					lc.jobDone(id)
				default:
					if err := lc.runJob(op); err != nil {
						lc.fail("job %d: %v", op, err)
						continue
					}
					lc.jobDone("")
					lc.mu.Lock()
					n := lc.done
					lc.mu.Unlock()
					if n%10 == 0 {
						fmt.Fprintf(cfg.Out, "[loadtest] %d/%d jobs done\n", n, cfg.Jobs)
					}
				}
			}
		}(w)
	}
	if cfg.ReadRatio > 0 {
		if id, err := lc.submitJob(0); err == nil {
			lc.jobDone(id)
		} else {
			lc.fail("seed job: %v", err)
		}
	}
	for _, op := range ops {
		work <- op
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	lc.mu.Lock()
	defer lc.mu.Unlock()
	sort.Slice(lc.latencies, func(i, j int) bool { return lc.latencies[i] < lc.latencies[j] })
	res := &LoadTestResult{
		Jobs:     cfg.Jobs,
		Done:     lc.done,
		Failed:   lc.failed,
		Failures: lc.failures,
		Reads:    lc.reads,
		Requests: lc.requests,
		Wall:     wall,
	}
	if wall > 0 {
		res.JobsPerSec = float64(lc.done) / wall.Seconds()
		res.ReqPerSec = float64(lc.requests) / wall.Seconds()
	}
	if n := len(lc.latencies); n > 0 {
		res.P50 = lc.latencies[n/2]
		res.P95 = lc.latencies[n*95/100]
		res.P99 = lc.latencies[n*99/100]
		res.Max = lc.latencies[n-1]
	}
	res.Streamed = lc.streamed
	res.IngestEvents = lc.ingestEvents
	if wall > 0 {
		res.IngestPerSec = float64(lc.ingestEvents) / wall.Seconds()
	}
	if n := len(lc.tailLat); n > 0 {
		sort.Slice(lc.tailLat, func(i, j int) bool { return lc.tailLat[i] < lc.tailLat[j] })
		res.TailP50 = lc.tailLat[n/2]
		res.TailP99 = lc.tailLat[n*99/100]
		res.TailMax = lc.tailLat[n-1]
	}
	shards := make([]string, 0, len(lc.perShard))
	for id := range lc.perShard {
		shards = append(shards, id)
	}
	sort.Strings(shards)
	for _, id := range shards {
		ds := lc.perShard[id]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		res.PerShard = append(res.PerShard, ShardLatency{
			Shard:    id,
			Requests: len(ds),
			P50:      ds[len(ds)/2],
			P99:      ds[len(ds)*99/100],
		})
	}
	return res, nil
}

// Render formats the result for terminals.
func (r *LoadTestResult) Render() string {
	out := fmt.Sprintf(
		"loadtest: %d jobs (%d done, %d failed) in %.2fs — %.1f jobs/s, %.1f req/s over %d requests\n",
		r.Jobs, r.Done, r.Failed, r.Wall.Seconds(), r.JobsPerSec, r.ReqPerSec, r.Requests)
	if r.Reads > 0 {
		out += fmt.Sprintf("reads: %d query requests\n", r.Reads)
	}
	if r.Streamed > 0 {
		out += fmt.Sprintf("streaming: %d jobs, %d events ingested (%.0f events/s), tail latency p50 %s  p99 %s  max %s\n",
			r.Streamed, r.IngestEvents, r.IngestPerSec, r.TailP50, r.TailP99, r.TailMax)
	}
	for _, f := range r.Failures {
		out += "failure: " + f + "\n"
	}
	out += fmt.Sprintf("request latency: p50 %s  p95 %s  p99 %s  max %s\n",
		r.P50, r.P95, r.P99, r.Max)
	for _, s := range r.PerShard {
		out += fmt.Sprintf("  shard %s: %d requests  p50 %s  p99 %s\n",
			s.Shard, s.Requests, s.P50, s.P99)
	}
	return out
}
