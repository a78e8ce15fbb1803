package datagen

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Kind: SocialNetwork, Vertices: 500, Edges: 2000, Seed: 42, Directed: true}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	base := Config{Kind: SocialNetwork, Vertices: 500, Edges: 2000, Directed: true}
	c1, c2 := base, base
	c1.Seed, c2.Seed = 1, 2
	a, _ := Generate(c1)
	b, _ := Generate(c2)
	same := true
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestSocialNetworkIsSkewed(t *testing.T) {
	d, err := Generate(Config{Kind: SocialNetwork, Vertices: 5000, Edges: 50000, Seed: 7, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	st := d.Graph.OutDegreeStats()
	if st.Skew < 10 {
		t.Fatalf("social network skew = %.1f, want >= 10 (power-law hubs)", st.Skew)
	}
	uni, err := Generate(Config{Kind: Uniform, Vertices: 5000, Edges: 50000, Seed: 7, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	ust := uni.Graph.OutDegreeStats()
	if st.Skew <= ust.Skew {
		t.Fatalf("social skew %.1f not above uniform skew %.1f", st.Skew, ust.Skew)
	}
}

func TestRMATGenerates(t *testing.T) {
	d, err := Generate(Config{Kind: RMAT, Vertices: 1024, Edges: 8192, Seed: 3, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(d.Edges)) != 8192 {
		t.Fatalf("edges = %d, want 8192", len(d.Edges))
	}
	st := d.Graph.OutDegreeStats()
	if st.Skew < 3 {
		t.Fatalf("RMAT skew = %.1f, want noticeable skew", st.Skew)
	}
}

func TestRMATRejectsBadProbs(t *testing.T) {
	_, err := Generate(Config{
		Kind: RMAT, Vertices: 64, Edges: 100, Seed: 1,
		RMATProbs: [4]float64{0.5, 0.5, 0.5, 0.5},
	})
	if err == nil {
		t.Fatal("expected error for probabilities not summing to 1")
	}
}

func TestUniformEdgesInRange(t *testing.T) {
	d, err := Generate(Config{Kind: Uniform, Vertices: 100, Edges: 1000, Seed: 5, Directed: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Edges {
		if e.Src < 0 || e.Src >= 100 || e.Dst < 0 || e.Dst >= 100 {
			t.Fatalf("edge out of range: %v", e)
		}
		if e.Src == e.Dst {
			t.Fatalf("self loop generated: %v", e)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Kind: Uniform, Vertices: 0, Edges: 10}); err == nil {
		t.Fatal("expected error for zero vertices")
	}
	if _, err := Generate(Config{Kind: Uniform, Vertices: 10, Edges: -1}); err == nil {
		t.Fatal("expected error for negative edges")
	}
	if _, err := Generate(Config{Kind: Kind(99), Vertices: 10, Edges: 1}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := Generate(Config{Kind: SocialNetwork, Vertices: 10, Edges: 1, ZipfS: 0.5}); err == nil {
		t.Fatal("expected error for Zipf exponent <= 1")
	}
}

func TestDatasetSizeBytes(t *testing.T) {
	d, err := Generate(Config{Kind: Uniform, Vertices: 10, Edges: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.SizeBytes() != 100*DefaultEdgeBytes {
		t.Fatalf("SizeBytes = %d, want %d", d.SizeBytes(), 100*DefaultEdgeBytes)
	}
}

func TestDatasetDefaultName(t *testing.T) {
	d, err := Generate(Config{Kind: Uniform, Vertices: 10, Edges: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "uniform-n10-m5" {
		t.Fatalf("Name = %q", d.Name)
	}
	named, err := Generate(Config{Kind: Uniform, Vertices: 10, Edges: 5, Seed: 1, Name: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	if named.Name != "custom" {
		t.Fatalf("Name = %q, want custom", named.Name)
	}
}

func TestDG1000ShapedConfig(t *testing.T) {
	cfg := DG1000Shaped(1)
	if cfg.Name != "dg1000" || !cfg.Directed || cfg.Kind != SocialNetwork {
		t.Fatalf("unexpected dg1000 config: %+v", cfg)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	weights := []float64{1, 2, 4, 8}
	a := NewAlias(weights, rng)
	counts := make([]int, 4)
	const trials = 200000
	for i := 0; i < trials; i++ {
		counts[a.Sample()]++
	}
	total := 15.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / trials
		if got < want*0.9 || got > want*1.1 {
			t.Fatalf("index %d: frequency %.4f, want ~%.4f", i, got, want)
		}
	}
}

func TestAliasPanicsOnBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, weights := range [][]float64{nil, {0, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", weights)
				}
			}()
			NewAlias(weights, rng)
		}()
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{SocialNetwork: "social-network", RMAT: "rmat", Uniform: "uniform"}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}

// TestPartitionMemoizedOnceUnderConcurrency races many callers for one
// partitioning key: every caller must get the same pointer from a single
// build, and that build must equal a fresh graph.Partition. Run it with
// -race: the memo is shared by concurrent jobs.
func TestPartitionMemoizedOnceUnderConcurrency(t *testing.T) {
	ds, err := Generate(Config{Kind: SocialNetwork, Vertices: 800, Edges: 4000, Seed: 5, Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	base := ds.MemoryBytes()
	const callers = 8
	got := make([]*graph.Partitioned, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = ds.Partition(4, graph.VertexCutHash)
			ds.MemoryBytes() // charges are read while builds are in flight
		}(i)
	}
	close(start)
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got a different partitioning pointer", i)
		}
	}
	if want := base + got[0].MemoryBytes(); ds.MemoryBytes() != want {
		t.Fatalf("dataset charges %d bytes after the race, want %d (one build)", ds.MemoryBytes(), want)
	}
	if ds.Partition(4, graph.VertexCutHash) != got[0] {
		t.Fatal("a later call rebuilt the partitioning")
	}
	if ds.Partition(4, graph.VertexCutGreedy) == got[0] || ds.Partition(3, graph.VertexCutHash) == got[0] {
		t.Fatal("distinct keys share a partitioning")
	}

	fresh := graph.Partition(ds.Graph, ds.Edges, 4, graph.VertexCutHash)
	memo := got[0]
	for m := 0; m < 4; m++ {
		if memo.MasterCounts()[m] != fresh.MasterCounts()[m] || memo.ReplicaCounts()[m] != fresh.ReplicaCounts()[m] {
			t.Fatalf("machine %d counts differ from a fresh build", m)
		}
		mf, ff := memo.Fragments()[m], fresh.Fragments()[m]
		for v := graph.VertexID(0); int64(v) < ds.Graph.NumVertices(); v++ {
			if !equalIDs(mf.OutNeighbors(v), ff.OutNeighbors(v)) || !equalIDs(mf.InNeighbors(v), ff.InNeighbors(v)) {
				t.Fatalf("machine %d vertex %d adjacency differs from a fresh build", m, v)
			}
		}
	}
}

func equalIDs(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
