package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/platforms"
)

// cacheRequest is a small job on the graph with the given seed.
func cacheRequest(platform, algorithm string, seed int64) JobRequest {
	return JobRequest{Platform: platform, Algorithm: algorithm, Vertices: 600, Edges: 3000, Seed: seed}
}

// countGenerations wraps the executor's dataset generator with a call
// counter. It must run before the first submission.
func countGenerations(e *Executor) *atomic.Int64 {
	var calls atomic.Int64
	gen := e.graphs.gen
	e.graphs.gen = func(k datasetKey) (*datagen.Dataset, error) {
		calls.Add(1)
		return gen(k)
	}
	return &calls
}

// referenceSummary runs a finished job's recorded request through
// platforms.Run on a freshly generated dataset, bypassing every cache.
func referenceSummary(t *testing.T, st JobState) Summary {
	t.Helper()
	req := st.Request
	ds, err := generateDataset(datasetKey{kind: req.GraphKind, vertices: req.Vertices, edges: req.Edges, seed: req.Seed})
	if err != nil {
		t.Fatal(err)
	}
	out, err := platforms.Run(platforms.Spec{
		Platform: req.Platform, Algorithm: req.Algorithm,
		Source:     datagen.PeripheralSource(ds.Graph),
		Iterations: req.Iterations, Dataset: ds, JobID: st.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	return summarize(req, out)
}

// runCached submits a job, waits for it, and checks its summary against
// an uncached reference run.
func runCached(t *testing.T, e *Executor, req JobRequest) {
	t.Helper()
	id, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id)
	if st.Status != StatusDone {
		t.Fatalf("job %s: %s %s", id, st.Status, st.Error)
	}
	if want := referenceSummary(t, st); !reflect.DeepEqual(*st.Summary, want) {
		t.Fatalf("job %s summary differs from an uncached run:\n got %+v\nwant %+v", id, *st.Summary, want)
	}
}

// TestGraphCacheGeneratesOnce runs concurrent jobs of every platform on
// one graph: the graph is generated once, every later job is a hit, the
// cache charges the dataset with the partitioning PowerGraph memoized on
// it, and /metrics shows all of it.
func TestGraphCacheGeneratesOnce(t *testing.T) {
	store, metrics := NewStore(), NewMetrics()
	e := NewExecutorWith(2, 16, store, metrics, ExecutorOptions{HostParallelism: 1})
	defer e.Shutdown(context.Background())
	calls := countGenerations(e)
	ts := httptest.NewServer(NewServer(e, store, metrics).Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		mix := [3][2]string{{"Giraph", "BFS"}, {"PowerGraph", "PageRank"}, {"OpenG", "WCC"}}[i%3]
		id, err := e.Submit(cacheRequest(mix[0], mix[1], 7))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st := waitTerminal(t, e, id)
		if st.Status != StatusDone {
			t.Fatalf("job %s: %s %s", id, st.Status, st.Error)
		}
		if want := referenceSummary(t, st); !reflect.DeepEqual(*st.Summary, want) {
			t.Fatalf("job %s summary differs from an uncached run", id)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("one graph generated %d times", n)
	}
	gs := e.GraphCacheStats()
	if gs.Misses != 1 || gs.Hits != 5 || gs.Evictions != 0 || gs.Entries != 1 {
		t.Fatalf("cache stats %+v, want 1 miss, 5 hits, no evictions, 1 entry", gs)
	}
	ds, err := generateDataset(datasetKey{kind: "social", vertices: 600, edges: 3000, seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := ds.MemoryBytes() + ds.Partition(ClusterDefaults().Nodes, platforms.PowerGraphPaperConfig(ds).CutStrategy).MemoryBytes()
	if gs.Bytes != want {
		t.Fatalf("cache charges %d bytes, want %d (dataset plus its partitioning)", gs.Bytes, want)
	}

	code, body := httpGet(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, line := range []string{
		"granula_graphcache_hits_total 5",
		"granula_graphcache_misses_total 1",
		"granula_graphcache_evictions_total 0",
		"granula_graphcache_entries 1",
		fmt.Sprintf("granula_graphcache_bytes %d", want),
	} {
		if !strings.Contains(string(body), line+"\n") {
			t.Fatalf("metrics lack %q:\n%s", line, body)
		}
	}
}

// TestGraphCacheEvictsLeastRecentlyUsed shrinks the budget to two
// graphs and walks distinct graphs through it: the least recently used
// entry goes first, a hit refreshes recency, the charge stays within the
// budget, and every summary still equals an uncached run. With a budget
// below one graph only the newest entry is kept, and a graph's
// partitioning is retained only once the graph is reused.
func TestGraphCacheEvictsLeastRecentlyUsed(t *testing.T) {
	e := NewExecutorWith(1, 4, NewStore(), nil, ExecutorOptions{HostParallelism: 1})
	defer e.Shutdown(context.Background())
	calls := countGenerations(e)

	probe, err := generateDataset(datasetKey{kind: "social", vertices: 600, edges: 3000, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	one := probe.MemoryBytes()
	e.graphs.budget = 2*one + one/2

	held := func() []int64 {
		e.graphs.mu.Lock()
		defer e.graphs.mu.Unlock()
		var seeds []int64
		for el := e.graphs.lru.Front(); el != nil; el = el.Next() {
			seeds = append(seeds, el.Value.(*graphEntry).key.seed)
		}
		return seeds
	}
	steps := []struct {
		seed int64
		want []int64 // held seeds, most recent first
	}{
		{1, []int64{1}},
		{2, []int64{2, 1}},
		{3, []int64{3, 2}}, // 1 is least recently used
		{2, []int64{2, 3}}, // hit: 2 becomes most recent
		{4, []int64{4, 2}}, // so 3 goes, not 2
		{1, []int64{1, 4}}, // 1 was evicted: generated again
	}
	for i, s := range steps {
		runCached(t, e, cacheRequest("Giraph", "BFS", s.seed))
		if got := held(); !reflect.DeepEqual(got, s.want) {
			t.Fatalf("step %d (seed %d): cache holds %v, want %v", i, s.seed, got, s.want)
		}
		if gs := e.GraphCacheStats(); gs.Bytes > e.graphs.budget {
			t.Fatalf("step %d: cache charges %d bytes over its %d budget", i, gs.Bytes, e.graphs.budget)
		}
	}
	gs := e.GraphCacheStats()
	if gs.Misses != 5 || gs.Hits != 1 || gs.Evictions != 3 || calls.Load() != 5 {
		t.Fatalf("cache stats %+v after %d generations, want 5 misses, 1 hit, 3 evictions", gs, calls.Load())
	}

	// A budget below one graph still keeps the entry just used. The
	// PowerGraph job that generates the graph partitions a twin, so only
	// the dataset is charged; the next job on it retains its partitioning.
	e.graphs.budget = 1
	fresh, err := generateDataset(datasetKey{kind: "social", vertices: 600, edges: 3000, seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{
		fresh.MemoryBytes(),
		fresh.MemoryBytes() + fresh.Partition(ClusterDefaults().Nodes, platforms.PowerGraphPaperConfig(fresh).CutStrategy).MemoryBytes(),
	} {
		runCached(t, e, cacheRequest("PowerGraph", "PageRank", 5))
		if got := held(); !reflect.DeepEqual(got, []int64{5}) {
			t.Fatalf("tiny budget: cache holds %v, want only the newest graph", got)
		}
		if gs := e.GraphCacheStats(); gs.Bytes != want {
			t.Fatalf("tiny budget: cache charges %d bytes, want %d", gs.Bytes, want)
		}
	}
}
