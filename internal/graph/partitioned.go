package graph

// Partitioned is one graph's complete PowerGraph-style partitioning over
// k machines: the vertex-cut edge placement, each machine's local CSR
// fragment, and the per-machine master and replica counts. All of it is
// a deterministic function of (edges, directedness, k, strategy), so it
// is built once and shared read-only by every job on the same graph and
// machine count. Nothing mutates a Partitioned after Partition returns;
// the slices its accessors return alias its storage and must not be
// modified.
type Partitioned struct {
	cut      *VertexCut
	frags    []*Fragment
	masters  []int64
	replicas []int64
}

// Partition builds g's vertex cut over k machines with the given
// strategy, the per-machine local CSR fragments (see BuildFragments),
// and the per-machine master and replica counts. edges must be the edge
// list g was built from, in the same order.
func Partition(g *Graph, edges []Edge, k int, strategy VertexCutStrategy) *Partitioned {
	n := g.NumVertices()
	cut := NewVertexCut(n, edges, k, strategy)
	p := &Partitioned{
		cut:      cut,
		frags:    BuildFragments(n, edges, cut, !g.Directed()),
		masters:  make([]int64, k),
		replicas: make([]int64, k),
	}
	for v := VertexID(0); int64(v) < n; v++ {
		p.masters[cut.Master(v)]++
		for _, m := range cut.Replicas(v) {
			p.replicas[m]++
		}
	}
	return p
}

// Cut returns the vertex-cut edge placement.
func (p *Partitioned) Cut() *VertexCut { return p.cut }

// Fragments returns the local CSR fragment of each machine, indexed by
// machine.
func (p *Partitioned) Fragments() []*Fragment { return p.frags }

// MasterCounts returns, per machine, the number of vertices whose master
// replica it owns.
func (p *Partitioned) MasterCounts() []int64 { return p.masters }

// ReplicaCounts returns, per machine, the number of vertex replicas
// (masters and mirrors) it holds.
func (p *Partitioned) ReplicaCounts() []int64 { return p.replicas }

// MemoryBytes estimates the partitioning's heap footprint: the vertex
// cut, every fragment, and the per-machine counts. Caches charge shared
// partitionings by it.
func (p *Partitioned) MemoryBytes() int64 {
	b := p.cut.MemoryBytes() + int64(len(p.masters)+len(p.replicas))*8
	for _, f := range p.frags {
		b += f.MemoryBytes()
	}
	return b
}
