package gas

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Deps are the platform's substrate services.
type Deps struct {
	Cluster *cluster.Cluster
	Store   *dfs.SharedStore
	// MPI is the runtime cost profile.
	MPI mpi.Config
	// InputPath must exist in Store (use StageInput) before RunJob.
	InputPath string
	// OutputPath is the shared-store output path.
	OutputPath string
}

// StageInput registers the dataset's (scaled) edge-list file in the shared
// store without charging job time.
func StageInput(s *dfs.SharedStore, path string, ds *datagen.Dataset, workScale float64) error {
	size := int64(float64(ds.SizeBytes()) * workScale)
	return s.Create(path, size)
}

// RunJob executes program over the dataset on the simulated platform,
// blocking the calling process until the job completes.
func RunJob(p *sim.Proc, deps Deps, cfg Config, program Program, ds *datagen.Dataset, em *trace.Emitter) (*Result, error) {
	if err := validate(deps, cfg); err != nil {
		return nil, err
	}
	j := &job{
		p:       p,
		eng:     p.Engine(),
		deps:    deps,
		cfg:     cfg,
		program: program,
		ds:      ds,
		em:      em,
	}
	j.initState()
	return j.run()
}

func validate(deps Deps, cfg Config) error {
	if cfg.Machines <= 0 {
		return fmt.Errorf("gas: machines must be positive, got %d", cfg.Machines)
	}
	if cfg.WorkScale <= 0 {
		return fmt.Errorf("gas: work scale must be positive, got %g", cfg.WorkScale)
	}
	if cfg.MaxIterations <= 0 {
		return fmt.Errorf("gas: max iterations must be positive, got %d", cfg.MaxIterations)
	}
	if cfg.LoadThreads <= 0 || cfg.ComputeThreads <= 0 {
		return fmt.Errorf("gas: thread counts must be positive")
	}
	if cfg.ChunkBytes <= 0 {
		return fmt.Errorf("gas: chunk bytes must be positive, got %d", cfg.ChunkBytes)
	}
	if deps.Cluster == nil || deps.Store == nil {
		return fmt.Errorf("gas: missing substrate dependency")
	}
	if !deps.Store.Exists(deps.InputPath) {
		return fmt.Errorf("gas: input %q not staged in shared store", deps.InputPath)
	}
	return nil
}

type job struct {
	p       *sim.Proc
	eng     *sim.Engine
	deps    Deps
	cfg     Config
	program Program
	ds      *datagen.Dataset
	em      *trace.Emitter

	st  *state
	err error

	// Phase gates between the client process and the rank processes.
	loadGate    *sim.Event
	loadDone    *sim.Event
	processGate *sim.Event
	processDone *sim.Event
	offloadGate *sim.Event
	offloadDone *sim.Event

	// Current phase parent ops, set by the client before firing a gate.
	loadOp    trace.OpRef
	processOp trace.OpRef
	offloadOp trace.OpRef
}

func (j *job) fail(err error) {
	if j.err == nil && err != nil {
		j.err = err
	}
}

func (j *job) run() (*Result, error) {
	start := j.p.Now()
	for _, ev := range []**sim.Event{&j.loadGate, &j.loadDone, &j.processGate, &j.processDone, &j.offloadGate, &j.offloadDone} {
		*ev = sim.NewEvent(j.eng)
	}
	root := j.em.Start(trace.Root, "PowergraphClient", "PowergraphJob")
	j.em.Info(root, "Dataset", j.ds.Name)
	j.em.Info(root, "Machines", fmt.Sprint(j.cfg.Machines))

	// Startup: mpirun spawns one rank per machine.
	startup := j.em.Start(root, "PowergraphClient", "Startup")
	mpiOp := j.em.Start(startup, "PowergraphClient", "MpiStartup")
	world, err := mpi.Spawn(j.p, j.deps.Cluster, j.deps.MPI, j.cfg.Machines, j.rankMain)
	if err != nil {
		j.em.End(mpiOp)
		j.em.End(startup)
		j.em.End(root)
		return nil, err
	}
	j.em.End(mpiOp)
	j.em.End(startup)

	// LoadGraph.
	j.loadOp = j.em.Start(root, "PowergraphClient", "LoadGraph")
	j.loadGate.Fire()
	j.loadDone.Wait(j.p)
	j.em.End(j.loadOp)

	// ProcessGraph.
	j.processOp = j.em.Start(root, "PowergraphClient", "ProcessGraph")
	j.processGate.Fire()
	j.processDone.Wait(j.p)
	j.em.End(j.processOp)

	// OffloadGraph.
	j.offloadOp = j.em.Start(root, "PowergraphClient", "OffloadGraph")
	j.offloadGate.Fire()
	j.offloadDone.Wait(j.p)
	j.em.End(j.offloadOp)

	// Cleanup.
	cleanup := j.em.Start(root, "PowergraphClient", "Cleanup")
	fin := j.em.Start(cleanup, "PowergraphClient", "MpiFinalize")
	world.Done().Wait(j.p)
	world.Finalize(j.p)
	j.em.End(fin)
	j.em.End(cleanup)
	j.em.End(root)

	if j.err != nil {
		return nil, j.err
	}
	return &Result{
		Values:            j.st.values,
		Iterations:        j.st.iter,
		ReplicationFactor: j.st.vc.ReplicationFactor(),
		EdgesPlaced:       int64(len(j.ds.Edges)),
		Runtime:           j.p.Now() - start,
	}, nil
}

// rankMain is one MPI rank's lifecycle.
func (j *job) rankMain(rp *sim.Proc, comm *mpi.Comm) {
	r := comm.Rank()
	actor := fmt.Sprintf("PowergraphRank-%d", r)
	c := j.cfg.Costs
	scale := j.cfg.WorkScale
	node := comm.Node()

	// ---- LoadGraph ----
	j.loadGate.Wait(rp)
	if j.cfg.ParallelLoad {
		j.parallelLoad(rp, comm, actor)
	} else if r == 0 {
		j.sequentialLoad(rp, comm, actor)
	}
	comm.Barrier(rp) // ranks 1..k-1 idle until rank 0 finishes distributing
	fin := j.em.Start(j.loadOp, actor, "FinalizeGraph")
	localEdges := float64(j.st.vc.ArcCounts()[r]) * scale
	replicas := float64(j.st.part.ReplicaCounts()[r]) * scale
	node.ExecParallel(rp, localEdges*c.FinalizeCPUPerEdge+replicas*c.FinalizeCPUPerReplica, j.cfg.ComputeThreads)
	j.em.End(fin)
	comm.Barrier(rp)
	if r == 0 {
		j.loadDone.Fire()
	}

	// ---- ProcessGraph ----
	j.processGate.Wait(rp)
	for j.st.iter < j.cfg.MaxIterations {
		it := j.st.iter
		comm.Barrier(rp)
		if r == 0 {
			j.st.curIterOp = j.em.Start(j.processOp, "PowergraphEngine", "Iteration")
			j.em.Infof(j.st.curIterOp, "Iteration", "%d", it)
		}
		comm.Barrier(rp) // ensure the Iteration op exists before children
		j.st.ensurePrepared(j.program, it)

		local := j.em.Start(j.st.curIterOp, actor, "LocalIteration")

		gatherOp := j.em.Start(local, actor, "Gather")
		node.ExecParallel(rp, float64(j.st.gatherEdges[r])*scale*c.GatherCPUPerEdge, j.cfg.ComputeThreads)
		for m := 0; m < j.cfg.Machines; m++ {
			if n := j.st.partialMsgs[r][m]; n > 0 && m != r {
				j.deps.Cluster.Transfer(rp, node, j.deps.Cluster.Node(m%j.deps.Cluster.Size()), float64(n)*scale*c.PartialBytes)
			}
		}
		j.em.Infof(gatherOp, "EdgesGathered", "%d", j.st.gatherEdges[r])
		j.em.End(gatherOp)
		comm.Barrier(rp)

		applyOp := j.em.Start(local, actor, "Apply")
		node.ExecParallel(rp, float64(j.st.applyCount[r])*scale*c.ApplyCPUPerVertex, j.cfg.ComputeThreads)
		j.em.Infof(applyOp, "VerticesApplied", "%d", j.st.applyCount[r])
		j.em.End(applyOp)
		comm.Barrier(rp)

		scatterOp := j.em.Start(local, actor, "Scatter")
		for m := 0; m < j.cfg.Machines; m++ {
			if n := j.st.syncMsgs[r][m]; n > 0 && m != r {
				j.deps.Cluster.Transfer(rp, node, j.deps.Cluster.Node(m%j.deps.Cluster.Size()), float64(n)*scale*c.SyncBytes)
			}
		}
		node.ExecParallel(rp, float64(j.st.scatterEdges[r])*scale*c.ScatterCPUPerEdge, j.cfg.ComputeThreads)
		j.em.Infof(scatterOp, "EdgesScattered", "%d", j.st.scatterEdges[r])
		j.em.End(scatterOp)
		j.em.End(local)

		active := comm.AllreduceSum(rp, float64(j.st.activationsPerRank[r]))
		if r == 0 {
			j.st.finishIteration()
			j.em.End(j.st.curIterOp)
		}
		comm.Barrier(rp)
		if active == 0 {
			break
		}
	}
	comm.Barrier(rp)
	if r == 0 {
		j.processDone.Fire()
	}

	// ---- OffloadGraph ----
	j.offloadGate.Wait(rp)
	masters := float64(j.st.part.MasterCounts()[r]) * scale
	if r == 0 {
		collect := j.em.Start(j.offloadOp, actor, "CollectResults")
		for i := 1; i < j.cfg.Machines; i++ {
			comm.Recv(rp, "results")
		}
		j.em.End(collect)
		write := j.em.Start(j.offloadOp, actor, "WriteResults")
		total := float64(j.st.g.NumVertices()) * scale * c.ResultBytesPerVertex
		path := fmt.Sprintf("%s/result-%s", j.deps.OutputPath, j.em.Job())
		if err := j.deps.Store.Write(rp, node, path, int64(total)); err != nil {
			j.fail(err)
		}
		j.em.End(write)
		j.offloadDone.Fire()
	} else {
		comm.Send(rp, 0, "results", masters*c.ResultBytesPerVertex, nil)
	}
}

// sequentialLoad is rank 0's loading loop: read a chunk from the shared
// store, parse it, distribute its edges to their machines — while every
// other rank waits (the paper's Figure 7 behaviour).
func (j *job) sequentialLoad(rp *sim.Proc, comm *mpi.Comm, actor string) {
	c := j.cfg.Costs
	seq := j.em.Start(j.loadOp, actor, "SequentialLoad")
	defer j.em.End(seq)
	size, err := j.deps.Store.Size(j.deps.InputPath)
	if err != nil {
		j.fail(err)
		return
	}
	node := comm.Node()
	scaledEdges := float64(len(j.ds.Edges)) * j.cfg.WorkScale
	edgesPerByte := scaledEdges / float64(size)
	remoteFrac := float64(j.cfg.Machines-1) / float64(j.cfg.Machines)
	for offset := int64(0); offset < size; offset += j.cfg.ChunkBytes {
		chunk := j.cfg.ChunkBytes
		if offset+chunk > size {
			chunk = size - offset
		}
		read := j.em.Start(seq, actor, "ReadEdgeFile")
		if err := j.deps.Store.Read(rp, node, j.deps.InputPath, chunk); err != nil {
			j.fail(err)
			j.em.End(read)
			return
		}
		j.em.End(read)

		parse := j.em.Start(seq, actor, "ParseEdges")
		node.ExecParallel(rp, float64(chunk)*c.ParseCPUPerByte, j.cfg.LoadThreads)
		j.em.End(parse)

		dist := j.em.Start(seq, actor, "DistributeEdges")
		chunkEdges := float64(chunk) * edgesPerByte
		remoteBytes := chunkEdges * remoteFrac * c.DistributeBytesPerEdge
		perPeer := remoteBytes / float64(j.cfg.Machines-1)
		for m := 1; m < j.cfg.Machines; m++ {
			j.deps.Cluster.Transfer(rp, node, j.deps.Cluster.Node(m%j.deps.Cluster.Size()), perPeer)
		}
		j.em.End(dist)
	}
	j.em.Infof(seq, "BytesLoaded", "%d", size)
}

// parallelLoad is the what-if loader: every rank reads and parses its own
// 1/k slice of the edge list concurrently, then distributes the (k-1)/k of
// parsed edges that belong elsewhere. Compare sequentialLoad.
func (j *job) parallelLoad(rp *sim.Proc, comm *mpi.Comm, actor string) {
	c := j.cfg.Costs
	op := j.em.Start(j.loadOp, actor, "ParallelLoad")
	defer j.em.End(op)
	size, err := j.deps.Store.Size(j.deps.InputPath)
	if err != nil {
		j.fail(err)
		return
	}
	node := comm.Node()
	k := j.cfg.Machines
	slice := size / int64(k)
	if comm.Rank() == k-1 {
		slice = size - slice*int64(k-1)
	}
	read := j.em.Start(op, actor, "ReadEdgeFile")
	if err := j.deps.Store.Read(rp, node, j.deps.InputPath, slice); err != nil {
		j.fail(err)
		j.em.End(read)
		return
	}
	j.em.End(read)
	parse := j.em.Start(op, actor, "ParseEdges")
	node.ExecParallel(rp, float64(slice)*c.ParseCPUPerByte, j.cfg.LoadThreads)
	j.em.End(parse)
	dist := j.em.Start(op, actor, "DistributeEdges")
	scaledEdges := float64(len(j.ds.Edges)) * j.cfg.WorkScale
	sliceEdges := scaledEdges / float64(k)
	remote := sliceEdges * float64(k-1) / float64(k) * c.DistributeBytesPerEdge
	if k > 1 {
		perPeer := remote / float64(k-1)
		for m := 0; m < k; m++ {
			if m == comm.Rank() {
				continue
			}
			j.deps.Cluster.Transfer(rp, node, j.deps.Cluster.Node(m%j.deps.Cluster.Size()), perPeer)
		}
	}
	j.em.End(dist)
	j.em.Infof(op, "BytesLoaded", "%d", slice)
}

// initState builds the per-job state over the dataset's partitioning,
// which the dataset builds on first use and shares read-only with every
// later job on the same machine count and cut strategy.
func (j *job) initState() {
	part := j.ds.Partition(j.cfg.Machines, j.cfg.CutStrategy)
	j.st = newState(j.ds.Graph, part, j.cfg.HostParallelism, j.program)
}
