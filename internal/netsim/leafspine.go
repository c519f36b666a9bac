package netsim

import "errors"

// NewLeafSpine builds the two-tier topology most production pods actually
// use: `leaves` leaf (ToR) switches each serving `hostsPerLeaf` hosts and
// uplinking to every one of `spines` spine switches. The uplink:downlink
// ratio sets the oversubscription (hostsPerLeaf / spines at equal rates).
//
// Leaf-spine reuses the fat-tree node kinds: leaves are NodeEdge, spines
// are NodeAgg (there is no core tier); host-leaf links are TierHostToR and
// leaf-spine links are TierToRAgg, so TechPlans apply unchanged.
func NewLeafSpine(leaves, spines, hostsPerLeaf int, linkRate float64) (*Topology, error) {
	if leaves <= 0 || spines <= 0 || hostsPerLeaf <= 0 {
		return nil, errors.New("netsim: leaf-spine needs positive leaves, spines, hosts")
	}
	if linkRate <= 0 {
		return nil, errors.New("netsim: link rate must be positive")
	}
	t := &Topology{K: 0}

	addNode := func(kind NodeKind, pod int) int {
		id := len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Pod: pod})
		return id
	}
	addLink := func(a, b int, tier Tier) {
		id := len(t.Links)
		t.Links = append(t.Links, Link{
			ID: id, A: a, B: b, Tier: tier,
			LengthM: tier.TypicalLengthM(), RateBps: linkRate,
		})
	}

	spineIDs := make([]int, 0, spines)
	for s := 0; s < spines; s++ {
		spineIDs = append(spineIDs, addNode(NodeAgg, -1))
	}
	for l := 0; l < leaves; l++ {
		leaf := addNode(NodeEdge, l)
		for h := 0; h < hostsPerLeaf; h++ {
			host := addNode(NodeHost, l)
			t.hosts = append(t.hosts, host)
			addLink(host, leaf, TierHostToR)
		}
		for _, s := range spineIDs {
			addLink(leaf, s, TierToRAgg)
		}
	}

	t.adj = make([][]int, len(t.Nodes))
	for _, l := range t.Links {
		t.adj[l.A] = append(t.adj[l.A], l.ID)
		t.adj[l.B] = append(t.adj[l.B], l.ID)
	}
	return t, nil
}
