// Command perfbench is the repository's benchmark: it drives
// in-process granula-serve stacks with one of three workloads from a
// closed loop of two clients, checks every answer, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run) as one JSON object on the last line of standard output.
// See README.md for the workloads and the metric → layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/service"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr))
}

func mainArgs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: fullSizes, log: stderr}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "jobs-hot, analytics or cluster-cold")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) || cfg.seed < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (jobs-hot, analytics, cluster-cold), --seed >= 1, --seconds > 0, --trace 0|1\n")
		return 2
	}
	fmt.Fprintln(stdout, hostLine())
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(buf))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostLine records what the numbers were measured on.
func hostLine() string {
	cpu := "unknown"
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q fsync=on(every group commit, window 0) clients=%d closed-loop",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, clients)
}

// runWorkload performs one run: reference runs and the Figure-5 gate,
// set-ups, the measured phase (plus the traced phase with --trace 1),
// correctness checks, and the metrics.
func runWorkload(cfg config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{cfg: cfg, wl: workloads[cfg.workload], refs: newReferences()}
	r.hotSpecs, r.smallSpecs = hotSpecs(r), smallSpecs(r)

	drift, err := checkFigure5()
	if err != nil {
		return nil, err
	}
	for _, d := range drift {
		r.check(d)
	}
	if r.wl.refs != nil {
		for _, req := range r.wl.refs(r) {
			if _, err := r.refs.get(req); err != nil {
				return nil, err
			}
		}
	}

	data := filepath.Join(dir, "data")
	if r.wl.name == "analytics" {
		t := time.Now()
		if err := preload(r, data); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		fmt.Fprintf(stdout, "preload: %d jobs archived in %.2fs (not part of setup_s)\n", cfg.size.preload, time.Since(t).Seconds())
	}

	n := cfg.size.setups
	if r.wl.name == "analytics" {
		n = cfg.size.analyticsSetups
	}
	if cfg.trace {
		n = 1
	}
	var setupS []float64
	closeStack := func() {
		if r.st != nil {
			r.st.close()
			r.cl.close()
			r.st = nil
		}
	}
	defer closeStack()
	for i := 0; i < n; i++ {
		if r.st != nil {
			closeStack()
			if r.wl.name != "analytics" {
				if err := os.RemoveAll(data); err != nil {
					return nil, err
				}
			}
		}
		// Collect the previous stack's garbage first, so no set-up pays
		// for the one before it.
		runtime.GC()
		took, err := setup(r, data)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, took.Seconds())
	}
	fmt.Fprintf(cfg.log, "perfbench: set-ups took %.3f s\n", setupS)

	if cfg.trace {
		return tracedRun(r, dir)
	}
	elapsed := r.drive(time.Duration(cfg.seconds * float64(time.Second)))
	r.verify()
	m := r.endToEnd(elapsed)
	m["setup_s"] = metric{median(setupS), "s"}
	return r.result(m), nil
}

// setup starts the workload's stack over data and makes it ready: from
// the first byte of storage opened until the server's first 200, plus
// the warm-up jobs that fill the executor's dataset cache.
func setup(r *run, data string) (time.Duration, error) {
	start := time.Now()
	var err error
	if r.wl.cluster {
		r.st, err = startCluster(data, r.cfg.trace)
	} else {
		r.st, err = startSingle(data)
	}
	if err != nil {
		return 0, err
	}
	r.cl = newClient(r.st.url)
	if err := waitHealthy(r.cl.hc, r.st.url, 30*time.Second); err != nil {
		return 0, err
	}
	if r.wl.warm != nil {
		for i, req := range r.wl.warm(r) {
			req.ID = fmt.Sprintf("warm-%d", i)
			if _, _, _, err := r.cl.runJob(req); err != nil {
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return time.Since(start), nil
}

// preload archives the analytics history through a real executor, then
// closes the store so every set-up pays recovery.
func preload(r *run, data string) error {
	st, err := startSingle(data)
	if err != nil {
		return err
	}
	defer st.close()
	exec := st.nodes[0].exec
	var ids []string
	for i := 0; i < r.cfg.size.preload; i++ {
		req := r.hotSpecs[i%len(r.hotSpecs)]
		req.ID = fmt.Sprintf("pre-%04d", i)
		for {
			_, err := exec.Submit(req)
			if err == nil {
				break
			}
			if !errors.Is(err, service.ErrQueueFull) {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		ids = append(ids, req.ID)
	}
	for _, id := range ids {
		for {
			s, _ := exec.State(id)
			if s.Status == service.StatusDone {
				break
			}
			if s.Status == service.StatusFailed || s.Status == service.StatusCanceled {
				return fmt.Errorf("preload job %s %s: %s", id, s.Status, s.Error)
			}
			time.Sleep(time.Millisecond)
		}
		r.addRecent(id)
	}
	return nil
}

// verify runs the correctness checks that follow a measured phase.
func (r *run) verify() {
	r.mu.Lock()
	done := append([]doneJob(nil), r.done...)
	r.mu.Unlock()
	for i, d := range done {
		want, err := r.refs.get(d.req)
		if err != nil {
			r.fail(err)
			continue
		}
		if r.cfg.corrupt && i == 0 {
			d.sum.Runtime++
		}
		if err := want.check(&d.sum); err != nil {
			r.fail(err)
		}
	}
	stores := r.st.stores()
	for i, q := range query2Variants {
		body, err := r.cl.query2(query2Path(q))
		if err == nil {
			var want []byte
			if want, err = oracleQuery2(q, stores); err == nil {
				if r.cfg.corrupt && i == 0 && len(body) > 0 {
					body[len(body)/2] ^= 1
				}
				if string(body) != string(want) {
					err = fmt.Errorf("/query2 %q: body differs from the tree-walk oracle", q)
				}
			}
		}
		r.check(err)
	}
	if r.wl.cluster {
		// Jobs of the traced phase were put straight into one shard's
		// store, bypassing replication, so only routed jobs are compared.
		var routed []doneJob
		for _, d := range done {
			if !strings.HasPrefix(d.id, "traced-") {
				routed = append(routed, d)
			}
		}
		r.checkRouting(routed, nil)
	}
}

// endToEnd computes the user-visible metrics of a measured phase.
func (r *run) endToEnd(elapsed time.Duration) map[string]metric {
	sec := elapsed.Seconds()
	jobs, reads, aggs := r.jobs.values(), r.reads.values(), r.aggs.values()
	fmt.Fprintf(r.cfg.log, "perfbench: %s: %d jobs, %d reads, %d aggregates in %.2fs; %d refused\n",
		r.wl.name, len(jobs), len(reads), len(aggs), sec, r.cl.refused.Load())
	r.cl.logEndpoints(r.cfg.log)
	archived := r.st.storedJobs()
	if r.wl.cluster {
		archived /= clusterR
	}
	return map[string]metric{
		"jobs_per_s":      {float64(len(jobs)) / sec, "1/s"},
		"job_p50_ms":      {quantile(jobs, 0.50), "ms"},
		"job_p90_ms":      {quantile(jobs, 0.90), "ms"},
		"reads_per_s":     {float64(len(reads)) / sec, "1/s"},
		"read_p50_ms":     {quantile(reads, 0.50), "ms"},
		"read_p99_ms":     {quantile(reads, 0.99), "ms"},
		"agg_p50_ms":      {quantile(aggs, 0.50), "ms"},
		"agg_p90_ms":      {quantile(aggs, 0.90), "ms"},
		"heap_kb_per_job": {liveHeapKB() / float64(r.st.storedJobs()), "KiB"},
		"disk_kb_per_job": {float64(r.st.diskBytes()) / 1024 / float64(archived), "KiB"},
	}
}

func liveHeapKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1024
}

func (r *run) result(m map[string]metric) *result {
	for _, e := range r.errs {
		fmt.Fprintf(r.cfg.log, "perfbench: failure: %s\n", e)
	}
	failed := r.failed.Load()
	return &result{Correct: failed == 0, Attempted: r.attempted.Load(), Failed: failed, Metrics: m}
}
