package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/archivedb"
	"repro/internal/datagen"
	"repro/internal/envmon"
	"repro/internal/platforms"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/trace"
)

// streamStack wires a service stack with live streaming enabled.
func streamStack(t *testing.T, opts ServerOptions) (*httptest.Server, *Store) {
	t.Helper()
	store := NewStore()
	metrics := NewMetrics()
	exec := NewExecutor(1, 4, store, metrics)
	srv := NewServerWith(exec, store, metrics, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		exec.Shutdown(context.Background())
	})
	return ts, store
}

// streamEventsFixture is a well-formed event stream for a tiny job:
// root with two sequential children, one info, one env sample, sealed
// done at t=6.
func streamEventsFixture() []stream.Event {
	return []stream.Event{
		{Seq: 1, Type: stream.TypeStart, Time: 0, Op: "op-1", Actor: "Client", Mission: "Job"},
		{Seq: 2, Type: stream.TypeStart, Time: 1, Op: "op-2", Parent: "op-1", Actor: "Worker-0", Mission: "Load"},
		{Seq: 3, Type: stream.TypeInfo, Time: 1.5, Op: "op-2", Key: "Bytes", Value: "1000"},
		{Seq: 4, Type: stream.TypeEnd, Time: 2, Op: "op-2"},
		{Seq: 5, Type: stream.TypeEnv, Time: 2, Node: "node-0", Kind: "cpu", Used: 1.5},
		{Seq: 6, Type: stream.TypeStart, Time: 2, Op: "op-3", Parent: "op-1", Actor: "Worker-1", Mission: "Compute"},
		{Seq: 7, Type: stream.TypeEnd, Time: 5, Op: "op-3"},
		{Seq: 8, Type: stream.TypeEnd, Time: 6, Op: "op-1"},
		{Seq: 9, Type: stream.TypeSeal, Time: 6, Platform: "Giraph", Algorithm: "BFS", State: stream.StateDone},
	}
}

func postIngest(t *testing.T, base, id string, events []stream.Event) (int, ingestResponse, []byte, http.Header) {
	t.Helper()
	body, err := stream.EncodeEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest/"+id, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	var ack ingestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &ack); err != nil {
			t.Fatalf("bad ingest ack: %v: %s", err, payload)
		}
	}
	return resp.StatusCode, ack, payload, resp.Header
}

func TestIngestLifecycle(t *testing.T) {
	ts, store := streamStack(t, ServerOptions{})
	events := streamEventsFixture()

	code, ack, _, _ := postIngest(t, ts.URL, "j1", events[:5])
	if code != http.StatusOK {
		t.Fatalf("first batch: %d", code)
	}
	if ack.Accepted != 5 || ack.LastSeq != 5 || ack.State != "streaming" {
		t.Fatalf("first ack: %+v", ack)
	}

	// Replaying the acked prefix plus the rest is idempotent and seals.
	code, ack, _, _ = postIngest(t, ts.URL, "j1", events)
	if code != http.StatusOK {
		t.Fatalf("seal batch: %d", code)
	}
	if ack.Accepted != 4 || ack.Duplicates != 5 || ack.LastSeq != 9 || ack.State != "archived" {
		t.Fatalf("seal ack: %+v", ack)
	}

	sj, ok := store.Get("j1")
	if !ok {
		t.Fatal("sealed job not in store")
	}
	if sj.Summary.Platform != "Giraph" || sj.Summary.Algorithm != "BFS" || sj.Summary.Operations != 3 {
		t.Fatalf("stored summary: %+v", sj.Summary)
	}
	if sj.Summary.Runtime != 6 {
		t.Fatalf("runtime = %v, want 6", sj.Summary.Runtime)
	}

	if code, body, _ := getBytes(t, ts.URL+"/jobs/j1/archive"); code != http.StatusOK || !bytes.Contains(body, []byte("op-3")) {
		t.Fatalf("archive after seal: %d: %s", code, body)
	}

	// A full replay after archiving gets a terminal success, not a gap.
	code, ack, _, _ = postIngest(t, ts.URL, "j1", events)
	if code != http.StatusOK || ack.State != "archived" || ack.Accepted != 0 {
		t.Fatalf("post-archive replay: %d %+v", code, ack)
	}
}

func TestIngestErrors(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()

	// A gap answers 409 with the expected next sequence.
	if _, _, _, _ = postIngest(t, ts.URL, "g1", events[:2]); true {
		code, _, body, hdr := postIngest(t, ts.URL, "g1", events[3:5])
		if code != http.StatusConflict {
			t.Fatalf("gap: %d: %s", code, body)
		}
		if hdr.Get("X-Granula-Expected-Seq") != "3" {
			t.Fatalf("expected-seq header = %q", hdr.Get("X-Granula-Expected-Seq"))
		}
	}

	// Malformed lines answer 400.
	resp, err := http.Post(ts.URL+"/ingest/g2", "application/x-ndjson", strings.NewReader("{not json}\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed: %d: %s", resp.StatusCode, body)
	}

	// A tree-invalid batch answers 400 and leaves state untouched.
	bad := []stream.Event{{Seq: 3, Type: stream.TypeEnd, Time: 2, Op: "nope"}}
	if code, _, body, _ := postIngest(t, ts.URL, "g1", bad); code != http.StatusBadRequest {
		t.Fatalf("invalid batch: %d: %s", code, body)
	}
	if code, ack, _, _ := postIngest(t, ts.URL, "g1", events); code != http.StatusOK || ack.State != "archived" {
		t.Fatalf("valid continuation after rejects: %d %+v", code, ack)
	}
}

func TestIngestBackpressure(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{StreamConfig: stream.Config{MaxLiveJobs: 1, MaxEventsPerJob: 6}})
	events := streamEventsFixture()

	if code, _, _, _ := postIngest(t, ts.URL, "b1", events[:4]); code != http.StatusOK {
		t.Fatalf("open b1: %d", code)
	}
	// Second live job exceeds MaxLiveJobs.
	code, _, body, hdr := postIngest(t, ts.URL, "b2", events[:2])
	if code != http.StatusTooManyRequests {
		t.Fatalf("live-job overflow: %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Growing b1 past MaxEventsPerJob sheds too.
	if code, _, _, _ := postIngest(t, ts.URL, "b1", events[:8]); code != http.StatusTooManyRequests {
		t.Fatalf("event overflow: %d", code)
	}
}

func TestStatusStreaming(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "s1", events[:5])

	st := getStatus(t, ts.URL, "s1")
	if st.Status != StatusStreaming {
		t.Fatalf("status = %q, want streaming", st.Status)
	}
	if st.Stream == nil || st.Stream.LastSeq != 5 || st.Stream.Events != 5 ||
		st.Stream.CompletedOps != 1 || st.Stream.OpenOps != 1 {
		t.Fatalf("stream progress: %+v", st.Stream)
	}
	if st.Request.Platform != "" {
		// The platform arrives with the seal; until then it is unknown.
		t.Fatalf("platform before seal: %q", st.Request.Platform)
	}

	postIngest(t, ts.URL, "s1", events)
	st = getStatus(t, ts.URL, "s1")
	if st.Status != StatusDone || st.Summary == nil {
		t.Fatalf("archived status: %+v", st)
	}
}

// TestQueryLiveAndCacheBypass pins satellite (a): responses computed
// from a live job are never cached (no stale bytes, no ETag), and the
// sealed archive re-enters the response cache under a fresh generation
// with a strong ETag.
func TestQueryLiveAndCacheBypass(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	q := "/jobs/q1/query?q=" + url.QueryEscape(`duration >= 0 order by start`)

	postIngest(t, ts.URL, "q1", events[:4]) // op-2 completed
	code, body1, hdr1 := getBytes(t, ts.URL+q)
	if code != http.StatusOK {
		t.Fatalf("live query: %d: %s", code, body1)
	}
	if hdr1.Get("ETag") != "" {
		t.Fatalf("live response carries ETag %q", hdr1.Get("ETag"))
	}
	var r1 queryResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if !r1.Live || r1.LastSeq != 4 || r1.Count != 1 {
		t.Fatalf("live response: live=%v lastSeq=%d count=%d", r1.Live, r1.LastSeq, r1.Count)
	}

	// More events arrive without any store write: a cached body would now
	// be stale. The same URL must reflect them.
	postIngest(t, ts.URL, "q1", events[:7]) // op-3 completed too
	_, body2, _ := getBytes(t, ts.URL+q)
	var r2 queryResponse
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Count != 2 || r2.LastSeq != 7 {
		t.Fatalf("stale live response after growth: count=%d lastSeq=%d", r2.Count, r2.LastSeq)
	}

	// Seal: the archive is published, responses turn cacheable with a
	// fresh ETag, and revalidation 304s.
	postIngest(t, ts.URL, "q1", events)
	code, body3, hdr3 := getBytes(t, ts.URL+q)
	if code != http.StatusOK || hdr3.Get("ETag") == "" {
		t.Fatalf("sealed query: %d etag=%q", code, hdr3.Get("ETag"))
	}
	var r3 queryResponse
	if err := json.Unmarshal(body3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Live || r3.LastSeq != 0 || r3.Count != 3 {
		t.Fatalf("sealed response: live=%v lastSeq=%d count=%d", r3.Live, r3.LastSeq, r3.Count)
	}
	req, _ := http.NewRequest("GET", ts.URL+q, nil)
	req.Header.Set("If-None-Match", hdr3.Get("ETag"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation after seal: %d", resp.StatusCode)
	}

	// The live mission-indexed path behaves the same way.
	postIngest(t, ts.URL, "q2", events[:4])
	if _, body, hdr := getBytes(t, ts.URL+"/jobs/q2/query?mission=Load"); hdr.Get("ETag") != "" || !bytes.Contains(body, []byte("op-2")) {
		t.Fatalf("live mission query: etag=%q body=%s", hdr.Get("ETag"), body)
	}
}

// watchCollect tails /watch/{id} until the stream closes and returns
// the raw SSE text.
func watchCollect(t *testing.T, base, id, extra string, lastEventID string) string {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/watch/"+id+extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	client := &http.Client{} // no timeout: the server closes at seal
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch %s: %d: %s", id, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	return string(body)
}

func TestWatchTailAndResume(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{WatchHeartbeat: 50 * time.Millisecond})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "w1", events[:5])

	// Seal arrives while the tail is open; the server then closes it.
	go func() {
		time.Sleep(150 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(ts.URL+"/ingest/w1", "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	text := watchCollect(t, ts.URL, "w1", "", "")
	for _, want := range []string{"id: 1\nevent: op\n", "id: 5\nevent: env\n", "id: 9\nevent: seal\n", ": heartbeat"} {
		if !strings.Contains(text, want) {
			t.Fatalf("tail missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `"op":"op-1"`) {
		t.Fatalf("frame data missing op-1:\n%s", text)
	}

	// Resume from seq 7 via Last-Event-ID on the archived job replays
	// nothing; a fresh tail of the archived job gets one seal frame.
	text = watchCollect(t, ts.URL, "w1", "", "7")
	if strings.Contains(text, "id: 1\n") || !strings.Contains(text, "event: seal") {
		t.Fatalf("archived tail:\n%s", text)
	}
}

// TestWatchSealRace forces the interleaving behind the seal-drop race:
// the rest of a stream, seal included, is ingested — and the job
// archived and removed from the live table — exactly between a tail's
// read of the live log and its next check of the job. Both the SSE tail
// and the long-poll fallback must still deliver the seal.
func TestWatchSealRace(t *testing.T) {
	store, metrics := NewStore(), NewMetrics()
	exec := NewExecutor(1, 4, store, metrics)
	srv := NewServerWith(exec, store, metrics, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer exec.Shutdown(context.Background())

	events := streamEventsFixture()
	var mu sync.Mutex
	raced := map[string]error{}
	srv.watchRace = func(id string) {
		mu.Lock()
		defer mu.Unlock()
		if _, done := raced[id]; done {
			return
		}
		body, err := stream.EncodeEvents(events)
		if err == nil {
			var resp *http.Response
			if resp, err = http.Post(ts.URL+"/ingest/"+id, "application/x-ndjson", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("ingest: %d", resp.StatusCode)
				}
			}
		}
		raced[id] = err
	}
	checkRaced := func(id string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		err, ok := raced[id]
		if !ok || err != nil {
			t.Fatalf("%s: the race hook never sealed the job (ran %v, err %v)", id, ok, err)
		}
		if _, live := srv.streams.Get(id); live {
			t.Fatalf("%s: job still live after its seal was ingested", id)
		}
	}

	postIngest(t, ts.URL, "race-sse", events[:5])
	text := watchCollect(t, ts.URL, "race-sse", "", "")
	checkRaced("race-sse")
	for _, want := range []string{"id: 5\nevent: env\n", "id: 8\nevent: op\n", "id: 9\nevent: seal\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("tail that raced the seal lacks %q:\n%s", want, text)
		}
	}

	postIngest(t, ts.URL, "race-poll", events[:5])
	code, body, _ := getBytes(t, ts.URL+"/watch/race-poll?poll=1&from=5&wait=30s")
	checkRaced("race-poll")
	var pr pollResponse
	if code != http.StatusOK || json.Unmarshal(body, &pr) != nil {
		t.Fatalf("poll: %d %s", code, body)
	}
	if !pr.Sealed || pr.Count != 4 || pr.LastSeq != 9 || pr.Events[len(pr.Events)-1].Type != stream.TypeSeal {
		t.Fatalf("poll that raced the seal: %s", body)
	}
}

func TestWatchResumeMidStream(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "w2", events[:6])
	go func() {
		time.Sleep(100 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(ts.URL+"/ingest/w2", "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	text := watchCollect(t, ts.URL, "w2", "?from=4", "")
	if strings.Contains(text, "id: 2\n") || strings.Contains(text, "id: 4\n") {
		t.Fatalf("resume replayed acked frames:\n%s", text)
	}
	for _, want := range []string{"id: 5\n", "id: 9\nevent: seal\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("resume missing %q:\n%s", want, text)
		}
	}
}

func TestWatchWindowedAggregation(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "w3", events[:5])
	go func() {
		time.Sleep(100 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(ts.URL+"/ingest/w3", "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	text := watchCollect(t, ts.URL, "w3", "?window=2s", "")
	if !strings.Contains(text, "event: window\n") {
		t.Fatalf("no window frames:\n%s", text)
	}
	if !strings.Contains(text, `"phases":{"Load":1}`) {
		t.Fatalf("window 0 lacks Load phase duration:\n%s", text)
	}
	if !strings.Contains(text, "event: seal\n") {
		t.Fatalf("windowed tail lacks final seal:\n%s", text)
	}
}

func TestWatchUnknownAndExecutorJobs(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	if code, _, _ := getBytes(t, ts.URL+"/watch/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown watch: %d", code)
	}
}

// TestHTTPStreamedSealEquivalence is the HTTP half of the
// seal-equivalence oracle: a job streamed through /ingest and sealed
// must serve byte-identical /archive and /query responses — including
// the strong ETag — to the same job run by the executor's batch path.
func TestHTTPStreamedSealEquivalence(t *testing.T) {
	req := JobRequest{Platform: "Giraph", Algorithm: "BFS", Vertices: 300, Edges: 900, ID: "eq-job"}

	// Server A: the batch path.
	storeA := NewStore()
	metricsA := NewMetrics()
	execA := NewExecutorWith(1, 4, storeA, metricsA, ExecutorOptions{HostParallelism: 1})
	tsA := httptest.NewServer(NewServerWith(execA, storeA, metricsA, ServerOptions{}).Handler())
	defer tsA.Close()
	defer execA.Shutdown(context.Background())
	if id := submitUntilAccepted(t, tsA.URL, req); id != "eq-job" {
		t.Fatalf("submit id %q", id)
	}
	if st := waitHTTPTerminal(t, tsA.URL, "eq-job"); st.Status != StatusDone {
		t.Fatalf("batch job: %+v", st)
	}

	// Capture the identical simulation's live records, exactly as an
	// external runner would emit them.
	ds, err := datagen.Generate(datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: 300, Edges: 900, Seed: 42, Directed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []stream.Event
	push := func(e stream.Event) {
		mu.Lock()
		e.Seq = uint64(len(events) + 1)
		events = append(events, e)
		mu.Unlock()
	}
	out, err := platforms.Run(platforms.Spec{
		Platform:        "Giraph",
		Algorithm:       "BFS",
		Source:          datagen.PeripheralSource(ds.Graph),
		Iterations:      10,
		Dataset:         ds,
		JobID:           "eq-job",
		HostParallelism: 1,
		RecordSink: func(r trace.Record) {
			push(stream.Event{Type: string(r.Event), Time: r.Time, Op: r.Op, Parent: r.Parent,
				Actor: r.Actor, Mission: r.Mission, Key: r.Key, Value: r.Value})
		},
		SampleSink: func(s envmon.Sample) {
			push(stream.Event{Type: stream.TypeEnv, Time: s.Time, Node: s.Node, Kind: s.Kind, Used: s.Used})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	push(stream.Event{Type: stream.TypeSeal, Time: out.Runtime, Platform: "Giraph", Algorithm: "BFS", State: stream.StateDone})

	// Server B: the same job arrives purely through /ingest, in batches.
	tsB, _ := streamStack(t, ServerOptions{})
	for off := 0; off < len(events); off += 64 {
		end := min(off+64, len(events))
		if code, _, body, _ := postIngest(t, tsB.URL, "eq-job", events[off:end]); code != http.StatusOK {
			t.Fatalf("ingest batch at %d: %d: %s", off, code, body)
		}
	}

	paths := []string{
		"/jobs/eq-job/archive",
		"/jobs/eq-job/query?q=" + url.QueryEscape(`mission = "Superstep" order by start`),
		"/jobs/eq-job/query?mission=ProcessGraph",
	}
	for _, p := range paths {
		codeA, bodyA, hdrA := getBytes(t, tsA.URL+p)
		codeB, bodyB, hdrB := getBytes(t, tsB.URL+p)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: batch %d streamed %d", p, codeA, codeB)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("%s: streamed bytes differ from batch (%d vs %d bytes)", p, len(bodyB), len(bodyA))
		}
		if hdrA.Get("ETag") == "" || hdrA.Get("ETag") != hdrB.Get("ETag") {
			t.Fatalf("%s: ETag %q vs %q", p, hdrA.Get("ETag"), hdrB.Get("ETag"))
		}
	}
}

// TestStreamRestartRecovery is the chaos half: acked ingest batches
// survive a hard restart — the live job resumes exactly where it was,
// tails replay the recovered events, and the stream still seals into
// the archive.
func TestStreamRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	events := streamEventsFixture()

	open := func() (*httptest.Server, *Store, *archivedb.DB, *Executor) {
		db, err := archivedb.Open(dir, archivedb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		metrics := NewMetrics()
		store, err := NewStoreWithOptions(db, StoreOptions{Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		exec := NewExecutor(1, 4, store, metrics)
		ts := httptest.NewServer(NewServerWith(exec, store, metrics, ServerOptions{}).Handler())
		return ts, store, db, exec
	}
	kill := func(ts *httptest.Server, store *Store, db *archivedb.DB, exec *Executor) {
		ts.Close()
		ctx, cancel := newTimeoutCtx(10 * time.Second)
		defer cancel()
		exec.Shutdown(ctx)
		store.Close()
		db.Close()
	}

	ts1, store1, db1, exec1 := open()
	if code, ack, _, _ := postIngest(t, ts1.URL, "r1", events[:3]); code != http.StatusOK || ack.LastSeq != 3 {
		t.Fatalf("batch 1: %d %+v", code, ack)
	}
	if code, ack, _, _ := postIngest(t, ts1.URL, "r1", events[:6]); code != http.StatusOK || ack.LastSeq != 6 {
		t.Fatalf("batch 2: %d %+v", code, ack)
	}
	kill(ts1, store1, db1, exec1) // crash mid-stream, after two acks

	ts2, store2, db2, exec2 := open()
	st := getStatus(t, ts2.URL, "r1")
	if st.Status != StatusStreaming || st.Stream == nil || st.Stream.LastSeq != 6 {
		t.Fatalf("recovered status: %+v", st)
	}
	// The recovered tail replays every acked event.
	go func() {
		time.Sleep(100 * time.Millisecond)
		body, _ := stream.EncodeEvents(events)
		resp, err := http.Post(ts2.URL+"/ingest/r1", "application/x-ndjson", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	text := watchCollect(t, ts2.URL, "r1", "", "")
	for _, want := range []string{"id: 1\n", "id: 6\n", "id: 9\nevent: seal\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("recovered tail missing %q:\n%s", want, text)
		}
	}
	// The watch closes on the seal frame, which the ingest handler
	// publishes just before it archives the job — give the put a moment.
	archived := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if _, ok := store2.Get("r1"); ok {
			archived = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !archived {
		t.Fatal("sealed job not archived after recovery")
	}
	kill(ts2, store2, db2, exec2) // restart again: archived job back, stream batches gone

	ts3, store3, db3, exec3 := open()
	defer kill(ts3, store3, db3, exec3)
	if _, ok := store3.Get("r1"); !ok {
		t.Fatal("archive lost across second restart")
	}
	if st := getStatus(t, ts3.URL, "r1"); st.Status != StatusDone {
		t.Fatalf("status after second restart: %+v", st)
	}
	if n := len(store3.RecoveredStreamBatches()); n != 0 {
		t.Fatalf("%d stale stream batches survived archiving", n)
	}
}

func TestStoreStreamBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreWithOptions(db, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		id   string
		seq  uint64
		data string
	}{{"j1", 4, "a"}, {"j1", 9, "b"}, {"j2", 3, "c"}} {
		if err := store.AppendStreamBatch(b.id, b.seq, []byte(b.data)); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	db.Close()

	db2, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store2, err := NewStoreWithOptions(db2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := store2.RecoveredStreamBatches()
	if len(got) != 3 {
		t.Fatalf("recovered %d batches, want 3: %+v", len(got), got)
	}
	want := []StreamBatch{
		{JobID: "j1", LastSeq: 4, Payload: []byte("a")},
		{JobID: "j1", LastSeq: 9, Payload: []byte("b")},
		{JobID: "j2", LastSeq: 3, Payload: []byte("c")},
	}
	for i, w := range want {
		g := got[i]
		if g.JobID != w.JobID || g.LastSeq != w.LastSeq || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("batch %d = %+v, want %+v", i, g, w)
		}
	}
	if err := store2.DeleteStreamBatches("j1"); err != nil {
		t.Fatal(err)
	}
	store2.Close()
	db2.Close()

	db3, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store3, err := NewStoreWithOptions(db3, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		store3.Close()
		db3.Close()
	}()
	got = store3.RecoveredStreamBatches()
	if len(got) != 1 || got[0].JobID != "j2" {
		t.Fatalf("after delete: %+v", got)
	}
}

// TestExecutorJobsStreamLive pins the in-process emitter hooks: a job
// run by the executor streams its own supersteps, so /watch tails it
// and ends with a seal frame once it completes.
func TestExecutorJobsStreamLive(t *testing.T) {
	streams := stream.NewManager(stream.Config{})
	store := NewStore()
	metrics := NewMetrics()
	exec := NewExecutorWith(1, 4, store, metrics, ExecutorOptions{Streams: streams, HostParallelism: 1})
	ts := httptest.NewServer(NewServerWith(exec, store, metrics, ServerOptions{Streams: streams}).Handler())
	defer ts.Close()
	defer exec.Shutdown(context.Background())

	id := submitUntilAccepted(t, ts.URL, JobRequest{Platform: "Giraph", Algorithm: "BFS", Vertices: 300, Edges: 900})

	// Attach whenever possible: before the run opens the stream the
	// watch answers 409 (queued) — poll through it. Whether the tail
	// catches the job live or already archived, it must end in a seal.
	deadline := time.Now().Add(30 * time.Second)
	var text string
	for {
		req, _ := http.NewRequest("GET", ts.URL+"/watch/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			text = string(body)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch never attached: %d: %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(text, "event: seal") {
		t.Fatalf("executor tail lacks seal:\n%s", text)
	}
	if st := waitHTTPTerminal(t, ts.URL, id); st.Status != StatusDone {
		t.Fatalf("job: %+v", st)
	}
	if streams.Live() != 0 {
		t.Fatalf("%d live jobs leaked after completion", streams.Live())
	}
	if code, _, _ := getBytes(t, ts.URL+"/jobs/"+id+"/archive"); code != http.StatusOK {
		t.Fatalf("archive: %d", code)
	}
}

// TestLoadTestStreamingMode smokes satellite (d): the loadtest's
// -stream-ratio path drives /ingest with concurrent /watch tails and
// reports ingest throughput and tail latency.
func TestLoadTestStreamingMode(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	res, err := RunLoadTest(LoadTestConfig{
		BaseURL:      ts.URL,
		Jobs:         3,
		Concurrency:  3,
		StreamRatio:  1,
		StreamEvents: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Streamed != 3 {
		t.Fatalf("streaming loadtest: %+v", res)
	}
	if res.IngestEvents == 0 || res.TailMax == 0 {
		t.Fatalf("missing streaming stats: %+v", res)
	}
	if !strings.Contains(res.Render(), "streaming:") {
		t.Fatalf("render lacks streaming line:\n%s", res.Render())
	}
}

func TestStreamMetricsExposed(t *testing.T) {
	ts, _ := streamStack(t, ServerOptions{})
	events := streamEventsFixture()
	postIngest(t, ts.URL, "m1", events[:5])
	postIngest(t, ts.URL, "m1", events[3:5]) // pure replay still counts a batch

	_, body, _ := getBytes(t, ts.URL+"/metrics")
	for _, want := range []string{
		"granula_stream_ingest_batches_total 2",
		"granula_stream_ingest_events_total 5",
		"granula_stream_live_jobs 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestEmitStreamBenchJSON writes BENCH_stream.json — ingest throughput
// at 1/8/64 concurrent writers and the incremental-index speedup over
// per-event rebuilds — when BENCH_STREAM_OUT names the output path. CI
// runs it to archive the numbers; without the env var it is a no-op
// skip.
func TestEmitStreamBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_STREAM_OUT")
	if path == "" {
		t.Skip("BENCH_STREAM_OUT not set")
	}
	ts, _ := streamStack(t, ServerOptions{StreamConfig: stream.Config{MaxLiveJobs: 128}})

	type ingestPoint struct {
		Writers   int     `json:"writers"`
		Events    int     `json:"events"`
		EventsSec float64 `json:"events_per_sec"`
	}
	var ingest []ingestPoint
	for _, writers := range []int{1, 8, 64} {
		events := syntheticStream(512)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				id := fmt.Sprintf("bench-%d-%d", writers, w)
				for off := 0; off < len(events); off += 256 {
					body, _ := stream.EncodeEvents(events[off:min(off+256, len(events))])
					for {
						resp, err := http.Post(ts.URL+"/ingest/"+id, "application/x-ndjson", bytes.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							break
						}
						if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
							t.Errorf("ingest: %d", resp.StatusCode)
							return
						}
						time.Sleep(10 * time.Millisecond)
					}
				}
			}(w)
		}
		wg.Wait()
		total := writers * len(events)
		ingest = append(ingest, ingestPoint{
			Writers: writers, Events: total,
			EventsSec: float64(total) / time.Since(start).Seconds(),
		})
	}

	// Incremental index vs per-event rebuild: appending one completed
	// operation and snapshotting must beat rebuilding the whole columnar
	// index from the growing archive each time.
	const ops = 2000
	root := &archive.Operation{ID: "root", Actor: "Client", Mission: "Job", Start: 0, End: ops}
	children := make([]*archive.Operation, ops)
	for i := range children {
		children[i] = &archive.Operation{
			ID: fmt.Sprintf("op-%d", i), Actor: "Worker", Mission: "Superstep",
			Start: float64(i), End: float64(i) + 0.5,
		}
	}
	startInc := time.Now()
	ac := query.NewAppendColumns()
	ac.Append(root, 0)
	for _, op := range children {
		ac.Append(op, 1)
		_ = ac.Snapshot()
	}
	incremental := time.Since(startInc)

	startRe := time.Now()
	for i := range children {
		root.Children = children[:i+1]
		_ = query.BuildColumns(&archive.Job{ID: "bench", Root: root})
	}
	rebuild := time.Since(startRe)

	report := struct {
		Ingest        []ingestPoint `json:"ingest"`
		IndexOps      int           `json:"index_ops"`
		IncrementalMs float64       `json:"incremental_ms"`
		RebuildMs     float64       `json:"rebuild_ms"`
		IndexSpeedup  float64       `json:"index_speedup"`
		HostNote      string        `json:"host_note"`
	}{
		Ingest: ingest, IndexOps: ops,
		IncrementalMs: float64(incremental.Microseconds()) / 1000,
		RebuildMs:     float64(rebuild.Microseconds()) / 1000,
		IndexSpeedup:  rebuild.Seconds() / incremental.Seconds(),
		HostNote:      fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s\n%s", path, data)
}
