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

	spineIDs := make([]int, 0, spines)
	for s := 0; s < spines; s++ {
		spineIDs = append(spineIDs, t.addNode(NodeAgg, -1))
	}
	for l := 0; l < leaves; l++ {
		leaf := t.addNode(NodeEdge, l)
		for h := 0; h < hostsPerLeaf; h++ {
			t.addLink(t.addNode(NodeHost, l), leaf, TierHostToR, linkRate)
		}
		for _, s := range spineIDs {
			t.addLink(leaf, s, TierToRAgg, linkRate)
		}
	}

	t.index()
	return t, nil
}
