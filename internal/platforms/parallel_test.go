package platforms

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/datagen"
)

// archiveBytes runs one (platform, algorithm) job at the given host
// parallelism and returns the serialized archive.
func archiveBytes(t *testing.T, ds *datagen.Dataset, platform, algorithm string, par int) []byte {
	t.Helper()
	out, err := Run(Spec{
		Platform:        platform,
		Algorithm:       algorithm,
		Dataset:         ds,
		Cluster:         smallCluster(),
		WorkScale:       1,
		Iterations:      3,
		HostParallelism: par,
	})
	if err != nil {
		t.Fatalf("%s/%s par=%d: %v", platform, algorithm, par, err)
	}
	a := archive.New()
	a.Add(out.Job)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArchiveBytesIdenticalAcrossPoolSizes is the archive determinism
// table: for every engine and algorithm, the serialized archive must be
// byte-for-byte identical for HostParallelism 1, 2, 4, and NumCPU. Host
// parallelism may only change wall-clock speed, never results.
//
// It also pins the shared-partitioning contract: the reference run uses
// a freshly generated dataset, so PowerGraph builds its partitioning
// cold, while every pool size then runs twice on one shared Dataset,
// whose memoized partitioning both runs reuse. All of them must produce
// the reference bytes.
func TestArchiveBytesIdenticalAcrossPoolSizes(t *testing.T) {
	ds := smallDataset(t)
	pools := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		pools = append(pools, n)
	}
	combos := []struct{ platform, algorithm string }{
		{"Giraph", "BFS"}, {"Giraph", "PageRank"}, {"Giraph", "SSSP"},
		{"Giraph", "WCC"}, {"Giraph", "CDLP"},
		{"PowerGraph", "BFS"}, {"PowerGraph", "PageRank"},
		{"PowerGraph", "SSSP"}, {"PowerGraph", "WCC"},
	}
	for _, c := range combos {
		t.Run(c.platform+"/"+c.algorithm, func(t *testing.T) {
			fresh := archiveBytes(t, smallDataset(t), c.platform, c.algorithm, 1)
			for _, par := range pools {
				for run := 1; run <= 2; run++ {
					got := archiveBytes(t, ds, c.platform, c.algorithm, par)
					if !bytes.Equal(got, fresh) {
						t.Fatalf("parallelism=%d run %d on a shared dataset differs from a fresh serial run: %d vs %d bytes (first diff at %d)",
							par, run, len(got), len(fresh), firstDiff(got, fresh))
					}
				}
			}
		})
	}
	// Every PowerGraph run above reused one memoized partitioning: the
	// shared dataset holds exactly one, the one a direct call returns.
	part := ds.Partition(smallCluster().Nodes, graphCutDefault)
	want := smallDataset(t).MemoryBytes() + part.MemoryBytes()
	if got := ds.MemoryBytes(); got != want {
		t.Fatalf("shared dataset charges %d bytes, want %d (graph plus one partitioning)", got, want)
	}
}

// TestParallelSpeedupOnFigure5Workload is the issue's performance gate:
// on a host with at least 4 cores, building the Figure 5 Giraph BFS
// archive with HostParallelism=NumCPU must be at least 2x faster than
// the serial build, with byte-identical archives. On smaller hosts the
// equivalence half still runs; the timing half is skipped because there
// is no parallel hardware to speed anything up.
func TestParallelSpeedupOnFigure5Workload(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short mode")
	}
	// Figure 5 shape at reduced scale so the serial leg stays test-sized.
	cfg := datagen.DG1000Shaped(7)
	cfg.Vertices = 30_000
	cfg.Edges = 150_000
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	run := func(par int) ([]byte, time.Duration) {
		start := time.Now()
		b := archiveBytes(t, ds, "Giraph", "BFS", par)
		return b, time.Since(start)
	}

	serialBytes, serialWall := run(1)
	parBytes, parWall := run(runtime.NumCPU())
	if !bytes.Equal(serialBytes, parBytes) {
		t.Fatalf("parallel archive differs from serial: %d vs %d bytes (first diff at %d)",
			len(parBytes), len(serialBytes), firstDiff(parBytes, serialBytes))
	}
	t.Logf("serial %v, parallel(%d cores) %v, speedup %.2fx",
		serialWall, runtime.NumCPU(), parWall, float64(serialWall)/float64(parWall))
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d cores; >=2x speedup gate needs >= 4", runtime.NumCPU())
	}
	if speedup := float64(serialWall) / float64(parWall); speedup < 2 {
		t.Fatalf("parallel archive build speedup %.2fx, want >= 2x (serial %v, parallel %v)",
			speedup, serialWall, parWall)
	}
}
