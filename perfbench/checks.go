package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/datagen"
	"repro/internal/platforms"
	"repro/internal/query"
	"repro/internal/service"
)

// expected is the part of a job summary that is fixed by the job spec:
// what a done job must report no matter which node ran it or when.
type expected struct {
	Runtime    float64
	Supersteps int
	Setup      float64
	IO         float64
	Processing float64
}

func expectedOf(out *platforms.Output) expected {
	return expected{
		Runtime:    out.Runtime,
		Supersteps: out.Supersteps,
		Setup:      out.Breakdown.SetupPercent(),
		IO:         out.Breakdown.IOPercent(),
		Processing: out.Breakdown.ProcessingPercent(),
	}
}

// check compares a served summary with the reference run.
func (e expected) check(got *service.Summary) error {
	if len(got.ModelErrors) > 0 {
		return fmt.Errorf("job %s has model errors: %v", got.ID, got.ModelErrors)
	}
	have := expected{got.Runtime, got.Supersteps, got.SetupPercent, got.IOPercent, got.ProcessingPercent}
	if have != e {
		return fmt.Errorf("job %s summary %+v, reference run gives %+v", got.ID, have, e)
	}
	return nil
}

// datasetConfig is the generator input the executor derives from a
// request whose fields are all set.
func datasetConfig(req service.JobRequest) datagen.Config {
	return datagen.Config{
		Kind: datagen.SocialNetwork, Vertices: req.Vertices, Edges: req.Edges,
		Seed: req.Seed, Directed: true,
	}
}

// platformSpec is the platforms.Spec the executor builds for req.
func platformSpec(req service.JobRequest, ds *datagen.Dataset, id string) platforms.Spec {
	return platforms.Spec{
		Platform:   req.Platform,
		Algorithm:  req.Algorithm,
		Source:     datagen.PeripheralSource(ds.Graph),
		Iterations: req.Iterations,
		Dataset:    ds,
		JobID:      id,
	}
}

// references memoizes one reference run per distinct job spec.
type references struct {
	mu sync.Mutex
	m  map[service.JobRequest]expected
}

func newReferences() *references {
	return &references{m: map[service.JobRequest]expected{}}
}

// get runs platforms.Run once for req (its ID ignored) and returns what
// every done job with that spec must report.
func (r *references) get(req service.JobRequest) (expected, error) {
	req.ID = ""
	r.mu.Lock()
	e, ok := r.m[req]
	r.mu.Unlock()
	if ok {
		return e, nil
	}
	ds, err := datagen.Generate(datasetConfig(req))
	if err != nil {
		return expected{}, err
	}
	out, err := platforms.Run(platformSpec(req, ds, ""))
	if err != nil {
		return expected{}, fmt.Errorf("reference run of %+v: %w", req, err)
	}
	if len(out.ModelErrors) > 0 {
		return expected{}, fmt.Errorf("reference run of %+v has model errors: %v", req, out.ModelErrors)
	}
	e = expectedOf(out)
	r.mu.Lock()
	r.m[req] = e
	r.mu.Unlock()
	return e, nil
}

// jobMeta is the job.* projection the service derives from a summary.
func jobMeta(id string, sum service.Summary) query.JobMeta {
	return query.JobMeta{
		ID: id, Platform: sum.Platform, Algorithm: sum.Algorithm,
		Runtime: sum.Runtime, Supersteps: sum.Supersteps, Operations: sum.Operations,
	}
}

// oracleQuery2 renders the /query2 response the slow way: parse, walk
// every stored operation tree, fold. Replicas of one job are identical,
// so the first copy found stands for all of them.
func oracleQuery2(raw string, stores []*service.Store) ([]byte, error) {
	q, err := query.Parse(raw)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var partials []query.JobPartial
	for _, st := range stores {
		for _, id := range st.IDs() {
			sj, ok := st.Get(id)
			if !ok || seen[id] {
				continue
			}
			seen[id] = true
			jp, err := q.AggregateTree(sj.Job, jobMeta(id, sj.Summary))
			if err != nil {
				return nil, err
			}
			partials = append(partials, jp)
		}
	}
	return q.RenderAggregate(raw, "jobs", "", partials)
}

// fidelityJSON pins the Figure-5 reproduction: BFS on the reduced
// dg1000 stand-in, simulated seconds and domain breakdown per platform.
// The simulation is deterministic, so any drift is a behaviour change.
//
//go:embed fidelity.json
var fidelityJSON []byte

type fidelity struct {
	Seed     int64               `json:"seed"`
	Vertices int64               `json:"vertices"`
	Edges    int64               `json:"edges"`
	Expected map[string]expected `json:"expected"`
}

// checkFigure5 reruns the Figure-5 jobs and compares them with the
// pinned values; it returns one error per platform that drifted.
func checkFigure5() ([]error, error) {
	var f fidelity
	if err := json.Unmarshal(fidelityJSON, &f); err != nil {
		return nil, fmt.Errorf("fidelity.json: %w", err)
	}
	cfg := datagen.DG1000Shaped(f.Seed)
	cfg.Vertices, cfg.Edges = f.Vertices, f.Edges
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var drift []error
	for _, p := range []string{"Giraph", "PowerGraph"} {
		out, err := platforms.Run(platforms.Spec{
			Platform: p, Algorithm: "BFS", Source: datagen.PeripheralSource(ds.Graph), Dataset: ds,
		})
		if err != nil {
			return nil, err
		}
		want, ok := f.Expected[p]
		switch got := expectedOf(out); {
		case !ok:
			drift = append(drift, fmt.Errorf("figure 5: no pinned values for %s", p))
		case got != want || len(out.ModelErrors) > 0:
			drift = append(drift, fmt.Errorf("figure 5: %s BFS gives %+v (model errors %v), pinned %+v", p, got, out.ModelErrors, want))
		}
	}
	return drift, nil
}
