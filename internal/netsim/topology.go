// Package netsim provides the datacenter-scale analysis layer: fat-tree
// topology generation with physical link lengths, per-tier link-technology
// assignment (with reach feasibility), network-wide power/reliability
// accounting, and a flow-level max-min fair simulator with failure
// injection.
//
// The flow simulator is one incremental engine (incremental.go: a
// dirty-set max-min allocator and the shard built on it) behind two
// stepped simulators that read finish times off the same slab: FlowSim
// advances one shard to its earliest completion and owns its clock
// (RunUntil), FleetSim advances one shard per pod from an epoch barrier
// (Step). Nothing is scheduled; the caller holds the clock.
//
// It exists to answer the paper's system-level question: what changes when
// the 2 m copper / power-hungry optics dichotomy is replaced by a 50 m,
// copper-power link? (Experiments E11, E12, E23 and E24.)
package netsim

import (
	"errors"
	"fmt"
)

// Tier labels where a link sits in the hierarchy.
type Tier int

// Link tiers, by distance from the server.
const (
	TierHostToR Tier = iota // server NIC to top-of-rack switch
	TierToRAgg              // ToR to aggregation (in-row)
	TierAggCore             // aggregation to core/spine (cross-hall)
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierHostToR:
		return "host-tor"
	case TierToRAgg:
		return "tor-agg"
	case TierAggCore:
		return "agg-core"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Tiers lists all tiers in order.
func Tiers() []Tier { return []Tier{TierHostToR, TierToRAgg, TierAggCore} }

// TypicalLengthM returns the representative physical cable length per tier
// (from published datacenter cabling studies: in-rack ~2 m, in-row
// ~10-30 m, cross-hall ~50-300 m).
func (t Tier) TypicalLengthM() float64 {
	switch t {
	case TierHostToR:
		return 2
	case TierToRAgg:
		return 20
	case TierAggCore:
		return 120
	default:
		return 0
	}
}

// NodeKind classifies a topology node.
type NodeKind int

// Node kinds.
const (
	NodeHost NodeKind = iota
	NodeEdge          // ToR
	NodeAgg
	NodeCore
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case NodeHost:
		return "host"
	case NodeEdge:
		return "edge"
	case NodeAgg:
		return "agg"
	case NodeCore:
		return "core"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is a topology vertex.
type Node struct {
	ID   int
	Kind NodeKind
	Pod  int // -1 for core
}

// Link is a bidirectional topology edge.
type Link struct {
	ID      int
	A, B    int // node IDs
	Tier    Tier
	LengthM float64
	RateBps float64
}

// Topology is a k-ary fat-tree.
type Topology struct {
	K     int
	Nodes []Node
	Links []Link
	// adjacency: node -> link IDs
	adj [][]int
	// up[node]: the node's links to the next tier up — the ECMP choices of
	// Path, built once so that routing a flow allocates nothing.
	up [][]int
	// hostIDs in order
	hosts []int
}

// NewFatTree builds the standard k-ary fat-tree: k pods, each with k/2
// edge and k/2 aggregation switches; (k/2)² core switches; k³/4 hosts.
// Link rates are uniform at linkRate.
func NewFatTree(k int, linkRate float64) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, errors.New("netsim: fat-tree k must be even and >= 2")
	}
	if linkRate <= 0 {
		return nil, errors.New("netsim: link rate must be positive")
	}
	t := &Topology{K: k}
	half := k / 2

	// Core switches: half*half.
	cores := make([]int, 0, half*half)
	for i := 0; i < half*half; i++ {
		cores = append(cores, t.addNode(NodeCore, -1))
	}
	// Pods.
	for p := 0; p < k; p++ {
		edges := make([]int, 0, half)
		aggs := make([]int, 0, half)
		for i := 0; i < half; i++ {
			edges = append(edges, t.addNode(NodeEdge, p))
		}
		for i := 0; i < half; i++ {
			aggs = append(aggs, t.addNode(NodeAgg, p))
		}
		// Hosts: each edge switch serves k/2 hosts.
		for _, e := range edges {
			for h := 0; h < half; h++ {
				t.addLink(t.addNode(NodeHost, p), e, TierHostToR, linkRate)
			}
		}
		// Edge <-> Agg full bipartite within pod.
		for _, e := range edges {
			for _, a := range aggs {
				t.addLink(e, a, TierToRAgg, linkRate)
			}
		}
		// Agg <-> Core: agg switch i connects to cores [i*half, (i+1)*half).
		for i, a := range aggs {
			for j := 0; j < half; j++ {
				t.addLink(a, cores[i*half+j], TierAggCore, linkRate)
			}
		}
	}

	t.index()
	return t, nil
}

func (t *Topology) addNode(kind NodeKind, pod int) int {
	id := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Pod: pod})
	if kind == NodeHost {
		t.hosts = append(t.hosts, id)
	}
	return id
}

func (t *Topology) addLink(a, b int, tier Tier, rate float64) {
	t.Links = append(t.Links, Link{
		ID: len(t.Links), A: a, B: b, Tier: tier,
		LengthM: tier.TypicalLengthM(), RateBps: rate,
	})
}

// index builds the adjacency and up-link tables once every node and link
// is in place.
func (t *Topology) index() {
	t.adj = make([][]int, len(t.Nodes))
	t.up = make([][]int, len(t.Nodes))
	for _, l := range t.Links {
		t.adj[l.A] = append(t.adj[l.A], l.ID)
		t.adj[l.B] = append(t.adj[l.B], l.ID)
	}
	for n, links := range t.adj {
		for _, lid := range links {
			// Node kinds are declared bottom-up: the next tier is Kind+1.
			if t.Nodes[t.peer(t.Links[lid], n)].Kind == t.Nodes[n].Kind+1 {
				t.up[n] = append(t.up[n], lid)
			}
		}
	}
}

// Hosts returns the host node IDs.
func (t *Topology) Hosts() []int { return t.hosts }

// NumHosts returns k³/4.
func (t *Topology) NumHosts() int { return len(t.hosts) }

// LinksByTier partitions link IDs by tier.
func (t *Topology) LinksByTier() map[Tier][]int {
	out := make(map[Tier][]int)
	for _, l := range t.Links {
		out[l.Tier] = append(out[l.Tier], l.ID)
	}
	return out
}

// neighbors returns (link, peer) pairs for a node.
func (t *Topology) neighbors(node int) []int { return t.adj[node] }

// peer returns the other endpoint of link l relative to node n.
func (t *Topology) peer(l Link, n int) int {
	if l.A == n {
		return l.B
	}
	return l.A
}

// Path computes the canonical fat-tree up/down route between two hosts,
// using `hash` to pick among the ECMP choices at each up hop. It appends
// the link IDs in order to buf (nil is fine; a buffer of six holds any
// route) and returns the extended slice. Same-host requests append
// nothing.
func (t *Topology) Path(buf []int, src, dst int, hash uint64) ([]int, error) {
	if src < 0 || src >= len(t.Nodes) || dst < 0 || dst >= len(t.Nodes) {
		return nil, errors.New("netsim: node out of range")
	}
	if t.Nodes[src].Kind != NodeHost || t.Nodes[dst].Kind != NodeHost {
		return nil, errors.New("netsim: paths are host-to-host")
	}
	if src == dst {
		return buf, nil
	}
	// Host -> edge.
	upLinks := t.adj[src]
	if len(upLinks) == 0 {
		return nil, errors.New("netsim: host has no uplink")
	}
	l0 := t.Links[upLinks[0]]
	edgeSrc := t.peer(l0, src)
	// Destination's edge switch.
	ld := t.Links[t.adj[dst][0]]
	edgeDst := t.peer(ld, dst)

	if edgeSrc == edgeDst {
		return append(buf, l0.ID, ld.ID), nil
	}

	// Collect the up options at the edge: links to agg/spine switches.
	aggLinks := t.up[edgeSrc]
	if len(aggLinks) == 0 {
		return nil, errors.New("netsim: edge has no agg uplinks")
	}
	la := aggLinks[int(hash%uint64(len(aggLinks)))]
	agg := t.peer(t.Links[la], edgeSrc)

	// Two-hop route through a shared aggregation switch: always available
	// within a fat-tree pod and between any two leaves of a leaf-spine.
	for _, lid := range t.adj[agg] {
		l := t.Links[lid]
		if t.peer(l, agg) == edgeDst {
			return append(buf, l0.ID, la, lid, ld.ID), nil
		}
	}
	if t.Nodes[edgeSrc].Pod == t.Nodes[edgeDst].Pod {
		return nil, errors.New("netsim: intra-pod path broken")
	}

	// Cross-pod: continue up to the core: edge -> agg -> core -> agg' -> edge'.
	coreLinks := t.up[agg]
	if len(coreLinks) == 0 {
		return nil, errors.New("netsim: agg has no core uplinks")
	}
	lc := coreLinks[int((hash/7)%uint64(len(coreLinks)))]
	core := t.peer(t.Links[lc], agg)
	// Core -> agg in destination pod (exactly one by construction).
	var laDown, aggDown int = -1, -1
	for _, lid := range t.adj[core] {
		l := t.Links[lid]
		p := t.peer(l, core)
		if t.Nodes[p].Kind == NodeAgg && t.Nodes[p].Pod == t.Nodes[edgeDst].Pod {
			laDown, aggDown = lid, p
			break
		}
	}
	if laDown < 0 {
		return nil, errors.New("netsim: core not connected to destination pod")
	}
	// Agg' -> edge'.
	for _, lid := range t.adj[aggDown] {
		l := t.Links[lid]
		if t.peer(l, aggDown) == edgeDst {
			return append(buf, l0.ID, la, lc, laDown, lid, ld.ID), nil
		}
	}
	return nil, errors.New("netsim: cross-pod path broken")
}
