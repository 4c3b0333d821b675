// Package network provides the analytic message-cost model FT-BESST
// charges for communication: an alpha–beta (latency–bandwidth) model on
// top of a topo.Topology, with optional link-level contention, plus cost
// models for the MPI-style collectives behavioral-emulation AppBEOs use
// (barrier, allreduce, broadcast, gather, all-to-all).
//
// BE-SST is a coarse-grained simulator: it does not simulate individual
// packets. Instead each communication block asks this package "how long
// would this transfer/collective take", which is exactly how the
// original framework polls its communication performance models.
package network

import (
	"math"

	"besst/internal/topo"
)

// Params describes the analytic parameters of a fabric.
type Params struct {
	// InjectionOverhead (the "alpha" term) is the per-message software
	// plus NIC overhead in seconds.
	InjectionOverhead float64
	// HopLatency is the per-link traversal latency in seconds
	// (switch + wire).
	HopLatency float64
	// LinkBandwidth is the bandwidth of every link in bytes/second.
	LinkBandwidth float64
	// EagerLimit is the message size in bytes below which the
	// bandwidth term is waived (eager protocol fits in one packet).
	EagerLimit int64
}

// Validate panics on nonsensical parameters; fabrics are constructed
// from machine descriptions at startup, so errors here are config bugs.
func (p Params) Validate() {
	if p.InjectionOverhead < 0 || p.HopLatency < 0 || p.LinkBandwidth <= 0 || p.EagerLimit < 0 {
		panic("network: invalid Params")
	}
}

// Model combines a topology with fabric parameters.
type Model struct {
	Topo   topo.Topology
	Params Params
}

// New returns a Model after validating params.
func New(t topo.Topology, p Params) *Model {
	p.Validate()
	return &Model{Topo: t, Params: p}
}

// PointToPoint returns the time in seconds to move nbytes from node a to
// node b with no competing traffic.
func (m *Model) PointToPoint(a, b int, nbytes int64) float64 {
	if nbytes < 0 {
		panic("network: negative message size")
	}
	if a == b {
		// Intra-node transfer: memory copy, modeled as one injection
		// overhead at memory bandwidth (approximated by link bandwidth
		// times a generous factor — the simulator's coarse granularity
		// does not resolve cache behaviour).
		return m.Params.InjectionOverhead + float64(nbytes)/(8*m.Params.LinkBandwidth)
	}
	hops := float64(m.Topo.Hops(a, b))
	t := m.Params.InjectionOverhead + hops*m.Params.HopLatency
	if nbytes > m.Params.EagerLimit {
		t += float64(nbytes) / m.Params.LinkBandwidth
	}
	return t
}

// Flow describes one transfer participating in a contention set.
type Flow struct {
	Src, Dst int
	Bytes    int64
}

// Congested returns the completion time in seconds of the slowest flow
// when all flows run concurrently, under fair link sharing: each link's
// bandwidth is divided evenly among the flows routed across it, and a
// flow's effective bandwidth is that of its most contended link. This is
// the standard max-contention approximation used by coarse-grained
// interconnect models.
func (m *Model) Congested(flows []Flow) float64 {
	if len(flows) == 0 {
		return 0
	}
	load := make(map[topo.LinkID]int)
	routes := make([][]topo.LinkID, len(flows))
	for i, f := range flows {
		routes[i] = m.Topo.Route(f.Src, f.Dst)
		for _, l := range routes[i] {
			load[l]++
		}
	}
	worst := 0.0
	for i, f := range flows {
		share := 1
		for _, l := range routes[i] {
			if load[l] > share {
				share = load[l]
			}
		}
		hops := float64(len(routes[i]))
		t := m.Params.InjectionOverhead + hops*m.Params.HopLatency
		if f.Bytes > m.Params.EagerLimit {
			t += float64(f.Bytes) * float64(share) / m.Params.LinkBandwidth
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// log2ceil returns ceil(log2(p)) for p >= 1.
func log2ceil(p int) int {
	if p <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(p))))
}

// avgStage approximates the per-stage neighbor distance of a
// recursive-doubling exchange on this topology: half the diameter is a
// serviceable coarse bound.
func (m *Model) avgStage() float64 {
	return m.Params.InjectionOverhead + float64(m.Topo.Diameter())/2*m.Params.HopLatency
}

// Barrier returns the time in seconds of a dissemination barrier across
// p ranks: ceil(log2 p) zero-byte exchange stages.
func (m *Model) Barrier(p int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(log2ceil(p)) * m.avgStage()
}

// Allreduce returns the time of a recursive-doubling allreduce of nbytes
// per rank across p ranks: log2(p) stages, each moving nbytes.
func (m *Model) Allreduce(p int, nbytes int64) float64 {
	if p <= 1 {
		return 0
	}
	stages := float64(log2ceil(p))
	perStage := m.avgStage()
	if nbytes > m.Params.EagerLimit {
		perStage += float64(nbytes) / m.Params.LinkBandwidth
	}
	return stages * perStage
}

// Broadcast returns the time of a binomial-tree broadcast of nbytes from
// one root to p ranks.
func (m *Model) Broadcast(p int, nbytes int64) float64 {
	// Same stage structure as allreduce.
	return m.Allreduce(p, nbytes)
}

// Gather returns the time for p ranks to each deliver nbytes to a single
// root. The root's injection link serializes the payload, so the
// bandwidth term is linear in p; the latency term is logarithmic
// (binomial combining).
func (m *Model) Gather(p int, nbytes int64) float64 {
	if p <= 1 {
		return 0
	}
	t := float64(log2ceil(p)) * m.avgStage()
	if nbytes > m.Params.EagerLimit {
		t += float64(p-1) * float64(nbytes) / m.Params.LinkBandwidth
	}
	return t
}

// AllToAll returns the time of a complete pairwise exchange of nbytes
// between every rank pair among p ranks: p-1 rounds of pairwise
// exchanges.
func (m *Model) AllToAll(p int, nbytes int64) float64 {
	if p <= 1 {
		return 0
	}
	perRound := m.avgStage()
	if nbytes > m.Params.EagerLimit {
		perRound += float64(nbytes) / m.Params.LinkBandwidth
	}
	return float64(p-1) * perRound
}

// NearestNeighbor returns the time for a halo exchange in which each
// rank exchanges nbytes with each of k neighbors simultaneously; the
// neighbor links are assumed disjoint (the common case for stencil
// codes mapped contiguously), so the cost is that of the largest single
// exchange plus a serialization factor for injection.
func (m *Model) NearestNeighbor(k int, nbytes int64) float64 {
	if k <= 0 {
		return 0
	}
	t := m.Params.InjectionOverhead*float64(k) + m.Params.HopLatency
	if nbytes > m.Params.EagerLimit {
		// All k messages leave through the same node uplink.
		t += float64(k) * float64(nbytes) / m.Params.LinkBandwidth
	}
	return t
}
