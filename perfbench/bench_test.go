package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// tinySizes shrinks every workload so the self-test runs in seconds.
var tinySizes = sizes{
	hotVertices: 1_000, hotEdges: 5_000, hotGraphs: 2,
	preload:       6,
	smallVertices: 500, smallEdges: 2_500,
	coldVertices: 500, coldEdges: 2_500,
	setups: 1, analyticsSetups: 1,
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyRun(t *testing.T, workload string, trace, corrupt bool) *result {
	t.Helper()
	cfg := config{
		workload: workload, seed: 3, seconds: 2, trace: trace,
		workdir: t.TempDir(), size: tinySizes, corrupt: corrupt, log: io.Discard,
	}
	res, err := runWorkload(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// Every workload emits exactly the metrics BENCHMARK.json declares, with
// the declared units, in both the measured and the traced run; the
// end-to-end ones are never 0.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no metric %s", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// A corrupted summary and a corrupted /query2 body each count as a
// failed operation, so the correctness checks are not vacuous.
func TestCorruptionCountsAsFailure(t *testing.T) {
	res := tinyRun(t, "jobs-hot", false, true)
	if res.Correct || res.Failed != 2 {
		t.Fatalf("correct=%v failed=%d, want false and 2 (one summary, one /query2 body)", res.Correct, res.Failed)
	}
}

// The pinned Figure-5 values reproduce.
func TestFigure5Pinned(t *testing.T) {
	drift, err := checkFigure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drift {
		t.Error(d)
	}
}
