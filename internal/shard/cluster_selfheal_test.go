// Self-healing chaos scenarios: the failure-detector / hinted-handoff /
// anti-entropy stack under real faults — a primary killed mid-storm, a
// network partition healed, a flapping (slow but alive) shard — against
// real granula-serve stacks behind a real router. These are the
// acceptance proofs for the robustness tentpole: zero quorum-acked
// archives lost, byte-identical convergence after heal, and no
// promotion on latency flaps.
package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// selfHealConfig is the canonical chaos topology from ISSUE: 3 shards,
// R=2, W=2 — every write needs both replicas (or a durable hint), so a
// dead shard forces the sloppy-quorum path on every job it co-owns.
func selfHealConfig() clusterConfig {
	return clusterConfig{
		shards: 3, replication: 2, quorum: 2, repairEvery: 0,
		nosync: true, selfHeal: true,
	}
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// exportBytes fetches one shard's raw /internal/export bytes for a job.
func exportBytes(cs *clusterShard, id string) ([]byte, bool) {
	resp, err := http.Get(cs.url + shard.ExportPathPrefix + id)
	if err != nil {
		return nil, false
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	return body, true
}

// shardByID finds a cluster shard by its map ID.
func shardByID(c *cluster, id string) *clusterShard {
	for _, cs := range c.shards {
		if cs.id == id {
			return cs
		}
	}
	return nil
}

// drainedHints sums delivered-hint counters across the live shards.
func drainedHints(c *cluster) uint64 {
	var total uint64
	for _, cs := range c.shards {
		if cs.heal != nil {
			_, drained := cs.heal.Hints()
			total += drained
		}
	}
	return total
}

// TestClusterFailoverPromotion kills a primary mid-write-storm on the
// R=2/W=2 topology and proves the self-healing contract end to end:
// the storm keeps acking through sloppy quorum, every quorum-acked
// archive stays readable with the shard dead (zero lost), writes to
// the dead primary's jobs promote to the next ring owner, and after
// the victim restarts the journaled hints (plus anti-entropy) converge
// it — with read-repair disabled, so the convergence is the new
// machinery's alone.
func TestClusterFailoverPromotion(t *testing.T) {
	c := startCluster(t, selfHealConfig())
	base := c.rts.URL
	victim := c.shards[1]

	const clients, perClient = 3, 8
	killAt := make(chan struct{})
	var killOnce sync.Once
	killed := make(chan struct{})
	var killedAt time.Time
	go func() {
		<-killAt
		killedAt = time.Now()
		victim.kill()
		close(killed)
	}()

	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				id := fmt.Sprintf("heal-%d-%02d", cl, j)
				if !postJob(base, clusterJob(id, int64(cl*100+j))) {
					continue
				}
				if cl == 0 && j == 2 {
					killOnce.Do(func() { close(killAt) })
				}
				if pollDone(base, id, 30*time.Second) {
					mu.Lock()
					acked = append(acked, id)
					mu.Unlock()
				}
			}
		}(cl)
	}
	wg.Wait()
	killOnce.Do(func() { close(killAt) })
	<-killed

	if len(acked) < clients*perClient/2 {
		t.Fatalf("only %d/%d jobs reached done through the kill", len(acked), clients*perClient)
	}

	// Time-to-recovery: how long until the router's detector confirmed
	// the death. After that point writes stop paying the corpse tax.
	waitCond(t, 10*time.Second, "router detector marks victim down", func() bool {
		return c.det.Down(victim.id)
	})
	ttr := time.Since(killedAt)
	t.Logf("TTR kill -> detector down: %v", ttr)

	// Zero lost: every quorum-acked archive is readable with the shard
	// dead. W=2 means each acked job has a durable copy (or a durable
	// hint holding its bytes) outside the victim.
	for _, id := range acked {
		if code, body, _ := mustGet(t, base+"/jobs/"+id+"/archive"); code != http.StatusOK {
			t.Fatalf("acked %s unreadable with the primary dead: %d %s", id, code, body)
		}
	}

	// Writes whose primary is the corpse promote to the next ring owner
	// without an attempt at the dead node — and keep acking at W=2 via
	// the hint the new head journals for the corpse.
	promoted := 0
	for i := 0; promoted < 2 && i < 50; i++ {
		id := fmt.Sprintf("promote-%02d", i)
		if c.m.Owners(id)[0].ID != victim.id {
			continue
		}
		before := c.router.Metrics().Promotions()
		if !postJob(base, clusterJob(id, int64(1000+i))) {
			t.Fatalf("write with dead primary rejected: %s", id)
		}
		if c.router.Metrics().Promotions() <= before {
			t.Fatalf("write %s did not count a promotion", id)
		}
		if !pollDone(base, id, 30*time.Second) {
			t.Fatalf("promoted write %s never reached done", id)
		}
		acked = append(acked, id)
		promoted++
	}
	if promoted == 0 {
		t.Fatal("no test ID hashed to the dead primary; widen the ID search")
	}

	// Restart the victim. Hints drain to it and anti-entropy fills any
	// gap; with repairEvery=0 and no reads against the victim, read
	// repair contributes nothing. Convergence: the victim exports every
	// acked job it co-owns.
	victim.restart(t)
	waitShardHealthy(t, victim.url)
	// Storm-phase reads may have triggered failover repairs between the
	// live shards; what must hold is that the victim's convergence
	// needs none — no router reads run during this window, so any new
	// repair would be a contamination of the hints/anti-entropy proof.
	c.router.WaitRepairs()
	repairsBefore := c.router.Metrics().Repairs()
	var owed []string
	for _, id := range acked {
		for _, n := range c.m.Owners(id) {
			if n.ID == victim.id {
				owed = append(owed, id)
			}
		}
	}
	if len(owed) == 0 {
		t.Fatal("victim co-owns none of the acked jobs; the convergence check is vacuous")
	}
	waitCond(t, 30*time.Second, "victim converged via hints/anti-entropy", func() bool {
		return len(missingOn(victim, owed)) == 0
	})
	if drainedHints(c) == 0 {
		t.Fatal("victim converged without a single hint draining — sloppy quorum never engaged")
	}
	if got := c.router.Metrics().Repairs(); got != repairsBefore {
		t.Fatalf("read-repair ran %d more times during convergence — the hints/anti-entropy proof is contaminated", got-repairsBefore)
	}
}

// TestClusterPartitionHealConvergence partitions one shard at the
// transport (the process stays healthy but unreachable — for the
// router AND its peers), runs writes that must sloppy-ack with hints
// for the unreachable replica, heals the partition, and requires every
// replica set to converge to byte-identical /internal/export bytes.
func TestClusterPartitionHealConvergence(t *testing.T) {
	c := startCluster(t, selfHealConfig())
	base := c.rts.URL
	victim := c.shards[2]

	// Let the detectors confirm the partition before the storm so the
	// write path hints immediately instead of paying timeouts.
	c.part.Block(victim.url)
	waitCond(t, 10*time.Second, "detectors see the partition", func() bool {
		if !c.det.Down(victim.id) {
			return false
		}
		for _, cs := range c.shards {
			if cs != victim && !cs.det.Down(victim.id) {
				return false
			}
		}
		return true
	})

	var acked []string
	for i := 0; len(acked) < 8 && i < 40; i++ {
		id := fmt.Sprintf("part-%02d", i)
		owners := c.m.Owners(id)
		coOwned := false
		for _, n := range owners {
			if n.ID == victim.id {
				coOwned = true
			}
		}
		if !coOwned {
			continue // only jobs that owe the victim a replica prove anything
		}
		if !postJob(base, clusterJob(id, int64(i))) {
			t.Fatalf("write during partition rejected: %s", id)
		}
		if !pollDone(base, id, 30*time.Second) {
			t.Fatalf("write during partition never reached done: %s", id)
		}
		acked = append(acked, id)
	}
	if len(acked) < 8 {
		t.Fatalf("only %d victim-co-owned jobs acked during the partition", len(acked))
	}
	if c.part.Dropped() == 0 {
		t.Fatal("partition dropped nothing — the victim was never actually cut off")
	}

	// Heal. Hints drain, anti-entropy reconciles, detectors mark the
	// victim up again — no restart, no operator action, no reads.
	c.part.Heal()
	waitCond(t, 30*time.Second, "every replica set byte-identical", func() bool {
		for _, id := range acked {
			var want []byte
			for _, n := range c.m.Owners(id) {
				got, ok := exportBytes(shardByID(c, n.ID), id)
				if !ok {
					return false
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	})
	waitCond(t, 10*time.Second, "detector marks the victim up", func() bool {
		return !c.det.Down(victim.id)
	})
	// Anti-entropy may converge the victim before the drainer's next
	// tick, so the drain is awaited rather than sampled: the hints the
	// partition recorded must still drain once the victim is up.
	waitCond(t, 30*time.Second, "hints recorded during the partition drain", func() bool {
		return drainedHints(c) > 0
	})
	// Sanity: convergence produced real bytes, not matching 404s.
	for _, id := range acked {
		buf, ok := exportBytes(victim, id)
		if !ok || !json.Valid(buf) {
			t.Fatalf("victim export for %s missing or invalid after heal", id)
		}
	}
}

// TestClusterDetectorFlap injects short network blips — latency-spike
// stand-ins far shorter than the Down threshold — and requires the
// hysteresis to hold: the flapping shard may reach Suspect but never
// Down, the router never promotes around it, and writes keep landing
// on their true primaries throughout.
func TestClusterDetectorFlap(t *testing.T) {
	cfg := selfHealConfig()
	cfg.probeEvery = 25 * time.Millisecond
	cfg.downAfter = 10 // a blip of 1-3 missed probes must stay far from Down
	c := startCluster(t, cfg)
	flapper := c.shards[0]

	for round := 0; round < 5; round++ {
		c.part.Block(flapper.url)
		time.Sleep(60 * time.Millisecond) // ~2 missed probes: Suspect territory
		c.part.Unblock(flapper.url)
		time.Sleep(150 * time.Millisecond) // plenty of hits to recover
		if c.det.Down(flapper.id) {
			t.Fatalf("round %d: a latency blip was promoted to death", round)
		}
	}
	if got := c.heal.Transitions(shard.NodeDown); got != 0 {
		t.Fatalf("router detector counted %d down transitions during flapping, want 0", got)
	}
	if got := c.router.Metrics().Promotions(); got != 0 {
		t.Fatalf("router promoted %d writes around a flapping shard, want 0", got)
	}

	// Writes still route to the flapping shard's primaries: ring order
	// was never disturbed.
	landed := false
	for i := 0; i < 40 && !landed; i++ {
		id := fmt.Sprintf("flap-%02d", i)
		if c.m.Owners(id)[0].ID != flapper.id {
			continue
		}
		buf, _ := json.Marshal(clusterJob(id, int64(i)))
		resp, err := http.Post(c.rts.URL+"/jobs", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		served := resp.Header.Get(shard.ShardHeader)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d", id, resp.StatusCode)
		}
		if served != flapper.id {
			t.Fatalf("write for %s served by %s, want its primary %s", id, served, flapper.id)
		}
		landed = true
	}
	if !landed {
		t.Fatal("no test ID hashed to the flapping shard")
	}
}

// TestEmitFailoverBenchJSON measures the self-healing numbers the
// operator cares about — detection time, promotion latency, and
// hint-drain throughput after a dead shard returns — and writes them
// as JSON when BENCH_FAILOVER_OUT names a path. CI uploads the file as
// the BENCH_failover artifact.
func TestEmitFailoverBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_FAILOVER_OUT")
	if path == "" {
		t.Skip("BENCH_FAILOVER_OUT not set")
	}
	c := startCluster(t, selfHealConfig())
	base := c.rts.URL
	victim := c.shards[1]

	// Seed a working set so the victim owes replicas after the kill.
	var acked []string
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("bench-%02d", i)
		if postJob(base, clusterJob(id, int64(i))) && pollDone(base, id, 30*time.Second) {
			acked = append(acked, id)
		}
	}
	if len(acked) < 12 {
		t.Fatalf("only %d/24 seed jobs acked", len(acked))
	}

	killedAt := time.Now()
	victim.kill()
	waitCond(t, 10*time.Second, "detector down", func() bool { return c.det.Down(victim.id) })
	detectMs := float64(time.Since(killedAt).Microseconds()) / 1000

	// First promoted write latency, detector already converged.
	var promoteMs float64
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("bench-promote-%02d", i)
		if c.m.Owners(id)[0].ID != victim.id {
			continue
		}
		start := time.Now()
		if !postJob(base, clusterJob(id, int64(100+i))) || !pollDone(base, id, 30*time.Second) {
			t.Fatalf("promoted bench write failed: %s", id)
		}
		promoteMs = float64(time.Since(start).Microseconds()) / 1000
		acked = append(acked, id)
		break
	}

	// Drain throughput: restart and time the convergence window.
	var owed []string
	for _, id := range acked {
		for _, n := range c.m.Owners(id) {
			if n.ID == victim.id {
				owed = append(owed, id)
			}
		}
	}
	restartAt := time.Now()
	victim.restart(t)
	waitShardHealthy(t, victim.url)
	waitCond(t, 60*time.Second, "victim converged", func() bool {
		return len(missingOn(victim, owed)) == 0
	})
	drainSecs := time.Since(restartAt).Seconds()
	drained := drainedHints(c)

	report := struct {
		Shards        int     `json:"shards"`
		Replication   int     `json:"replication"`
		WriteQuorum   int     `json:"write_quorum"`
		AckedJobs     int     `json:"acked_jobs"`
		DetectMs      float64 `json:"detect_ms"`
		PromoteMs     float64 `json:"first_promoted_write_ms"`
		OwedReplicas  int     `json:"owed_replicas"`
		HintsDrained  uint64  `json:"hints_drained"`
		ConvergeSecs  float64 `json:"converge_secs"`
		DrainPerSec   float64 `json:"hints_drained_per_sec"`
		RouterPromote uint64  `json:"router_promotions"`
	}{
		Shards: 3, Replication: 2, WriteQuorum: 2,
		AckedJobs: len(acked), DetectMs: detectMs, PromoteMs: promoteMs,
		OwedReplicas: len(owed), HintsDrained: drained, ConvergeSecs: drainSecs,
		DrainPerSec:   float64(drained) / drainSecs,
		RouterPromote: c.router.Metrics().Promotions(),
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
