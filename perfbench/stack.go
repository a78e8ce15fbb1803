package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archivedb"
	"repro/internal/service"
	"repro/internal/shard"
)

// execQueue is deep enough that a closed loop of two clients is never
// shed.
const execQueue = 8

// node is one in-process granula-serve stack: archivedb (fsync on, the
// default policy), store, executor, and HTTP server on a loopback
// listener, plus the self-healing cluster components when it is a shard.
type node struct {
	id  string
	dir string
	url string

	db    *archivedb.DB
	store *service.Store
	exec  *service.Executor
	hs    *http.Server

	rep   *shard.Replicator
	heal  *shard.SelfHealMetrics
	timed *timedReplicator // set when the replicator is being timed
	stops []func()
}

// openTimes splits a node's start-up into the storage engine's recovery
// and the store's rebuild of its in-memory indexes.
type openTimes struct {
	db, store time.Duration
}

// startNode opens dir and serves the stack on ln. With a cluster map it
// runs as shard id, with replication and the self-healing stack wired
// the way cmd/granula-serve wires them; timeRepl wraps the replicator in
// a timing decorator.
func startNode(dir string, ln net.Listener, workers int, m *shard.Map, id string, timeRepl bool) (*node, openTimes, error) {
	var ot openTimes
	t0 := time.Now()
	db, err := archivedb.Open(dir, archivedb.Options{})
	if err != nil {
		return nil, ot, err
	}
	ot.db = time.Since(t0)
	metrics := service.NewMetrics()
	t1 := time.Now()
	store, err := service.NewStoreWithOptions(db, service.StoreOptions{Metrics: metrics})
	if err != nil {
		db.Close()
		return nil, ot, err
	}
	ot.store = time.Since(t1)
	n := &node{id: id, dir: dir, url: "http://" + ln.Addr().String(), db: db, store: store}
	execOpts := service.ExecutorOptions{}
	srvOpts := service.ServerOptions{}
	if m != nil {
		n.heal = shard.NewSelfHealMetrics()
		det := shard.NewDetector(m, id, shard.DetectorOptions{Metrics: n.heal})
		n.heal.SetDetector(det)
		n.heal.SetHintGauge(store.HintCount)
		n.rep, err = shard.NewReplicator(id, m, shard.ReplicatorOptions{
			Hints: store, Detector: det, SelfHeal: n.heal,
		})
		if err != nil {
			store.Close()
			db.Close()
			return nil, ot, err
		}
		execOpts.Replicator = n.rep
		if timeRepl {
			n.timed = &timedReplicator{next: n.rep}
			execOpts.Replicator = n.timed
		}
		srvOpts.ShardID = id
		srvOpts.Cluster = m
		srvOpts.ExtraMetrics = func(w io.Writer) {
			n.rep.Metrics().WritePrometheus(w)
			n.heal.WritePrometheus(w)
		}
		drainer := shard.NewDrainer(m, store, shard.DrainerOptions{Detector: det, Metrics: n.heal})
		ae, err := shard.NewAntiEntropy(id, m, store, shard.AntiEntropyOptions{Detector: det, Metrics: n.heal})
		if err != nil {
			store.Close()
			db.Close()
			return nil, ot, err
		}
		det.Start()
		drainer.Start()
		ae.Start()
		n.stops = append(n.stops, ae.Close, drainer.Close, det.Close)
	}
	n.exec = service.NewExecutorWith(workers, execQueue, store, metrics, execOpts)
	srv := service.NewServerWith(n.exec, store, metrics, srvOpts)
	n.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go n.hs.Serve(ln)
	return n, ot, nil
}

// close stops the node: HTTP first, then the background cluster
// components, the executor (draining in-flight jobs), and storage.
func (n *node) close() {
	n.hs.Close()
	for _, stop := range n.stops {
		stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	n.exec.Shutdown(ctx) //nolint:errcheck // a drain past 30 s only aborts jobs nobody waits for
	cancel()
	n.store.Close()
	n.db.Close()
}

// diskBytes is the node's WAL plus columnar sidecar bytes on disk.
func (n *node) diskBytes() int64 {
	total := n.db.Stats().WALBytes
	entries, _ := os.ReadDir(filepath.Join(n.dir, "cols"))
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// timedReplicator is a timing decorator on the executor's replication
// hook: it records how long each quorum write blocks the job.
type timedReplicator struct {
	next service.JobReplicator
	took samples
}

func (t *timedReplicator) ReplicateJob(ctx context.Context, id string, version uint64, payload []byte) error {
	start := time.Now()
	err := t.next.ReplicateJob(ctx, id, version, payload)
	t.took.addDur(time.Since(start))
	return err
}

// stack is what a workload drives: one node, or three shards behind a
// router. url is where clients send requests.
type stack struct {
	url    string
	nodes  []*node
	m      *shard.Map
	router *shard.Router
	rhs    *http.Server
	rdet   *shard.Detector
	open   openTimes // of the first node
}

func (s *stack) close() {
	if s.rhs != nil {
		s.rhs.Close()
		s.rdet.Close()
		s.router.WaitRepairs()
	}
	for _, n := range s.nodes {
		n.close()
	}
}

func (s *stack) stores() []*service.Store {
	out := make([]*service.Store, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.store
	}
	return out
}

// storedJobs counts archived records summed over the nodes, replicas
// included.
func (s *stack) storedJobs() int {
	total := 0
	for _, n := range s.nodes {
		total += n.store.Len()
	}
	return total
}

func (s *stack) diskBytes() int64 {
	var total int64
	for _, n := range s.nodes {
		total += n.diskBytes()
	}
	return total
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startSingle serves one durable node over dir with two executor
// workers, one per client goroutine.
func startSingle(dir string) (*stack, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	n, ot, err := startNode(dir, ln, 2, nil, "", false)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &stack{url: n.url, nodes: []*node{n}, open: ot}, nil
}

// Cluster shape of cluster-cold: three shards with one executor worker
// each, every job on two of them, both copies acked before it is done.
const (
	clusterShards = 3
	clusterR      = 2
	clusterW      = 2
)

// startCluster serves three shards under dir behind a router, with the
// failure detector on in the router and self-healing on in the shards
// (the defaults of cmd/granula-router and cmd/granula-serve).
func startCluster(dir string, timeRepl bool) (*stack, error) {
	lns := make([]net.Listener, clusterShards)
	nodes := make([]shard.Node, clusterShards)
	closeAll := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range lns {
		ln, err := listen()
		if err != nil {
			closeAll()
			return nil, err
		}
		lns[i] = ln
		nodes[i] = shard.Node{ID: fmt.Sprintf("s%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	m, err := shard.NewMap(1, nodes, clusterR, clusterW, 0)
	if err != nil {
		closeAll()
		return nil, err
	}
	s := &stack{m: m}
	for i, nd := range nodes {
		n, ot, err := startNode(filepath.Join(dir, nd.ID), lns[i], 1, m, nd.ID, timeRepl)
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			s.close()
			return nil, err
		}
		if i == 0 {
			s.open = ot
		}
		s.nodes = append(s.nodes, n)
	}
	rln, err := listen()
	if err != nil {
		s.close()
		return nil, err
	}
	s.rdet = shard.NewDetector(m, "", shard.DetectorOptions{})
	s.rdet.Start()
	s.router = shard.NewRouter(m, shard.RouterOptions{RepairEvery: 16, Detector: s.rdet})
	s.rhs = &http.Server{Handler: s.router.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go s.rhs.Serve(rln)
	s.url = "http://" + rln.Addr().String()
	return s, nil
}
