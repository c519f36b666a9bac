package netsim

import "errors"

// NewFleet builds a multi-pod fleet: `pods` independent leaf-spine pods
// (leaves × spines bipartite, hostsPerLeaf hosts per leaf) joined by
// `spines` core switches, where core i connects to spine i of every
// pod. That plane-aligned core wiring makes the standard fat-tree
// up/down Path() work unchanged: intra-pod traffic turns around at a
// shared spine (NodeAgg), cross-pod traffic climbs spine i to core i
// and descends into the destination pod through its spine i.
//
// The fleet is the unit the sharded flow engine simulates: every
// intra-pod link belongs to exactly one pod, spine-core links belong to
// the pod of their spine endpoint, and a flow therefore touches the
// links of at most two pods (its source pod and, if cross-pod, its
// destination pod plus the two core hops — each owned by one of those
// same two pods). LinkShards exposes that owner map.
func NewFleet(pods, leaves, spines, hostsPerLeaf int, linkRate float64) (*Topology, error) {
	if pods <= 0 || leaves <= 0 || spines <= 0 || hostsPerLeaf <= 0 {
		return nil, errors.New("netsim: fleet needs positive pods, leaves, spines, hosts")
	}
	if linkRate <= 0 {
		return nil, errors.New("netsim: link rate must be positive")
	}
	t := &Topology{K: 0}

	cores := make([]int, 0, spines)
	for c := 0; c < spines; c++ {
		cores = append(cores, t.addNode(NodeCore, -1))
	}
	for p := 0; p < pods; p++ {
		leafIDs := make([]int, 0, leaves)
		for l := 0; l < leaves; l++ {
			leafIDs = append(leafIDs, t.addNode(NodeEdge, p))
		}
		spineIDs := make([]int, 0, spines)
		for s := 0; s < spines; s++ {
			spineIDs = append(spineIDs, t.addNode(NodeAgg, p))
		}
		for _, leaf := range leafIDs {
			for h := 0; h < hostsPerLeaf; h++ {
				t.addLink(t.addNode(NodeHost, p), leaf, TierHostToR, linkRate)
			}
			for _, s := range spineIDs {
				t.addLink(leaf, s, TierToRAgg, linkRate)
			}
		}
		for i, s := range spineIDs {
			t.addLink(s, cores[i], TierAggCore, linkRate)
		}
	}

	t.index()
	return t, nil
}

// LinkShards assigns every link of a fleet topology to a shard (its
// pod): the pod of whichever endpoint is a pod node. Spine-core links
// belong to the pod of their spine, so a cross-pod path spans exactly
// the shards of its two endpoint pods.
func LinkShards(t *Topology) []int {
	shards := make([]int, len(t.Links))
	for i, l := range t.Links {
		pod := t.Nodes[l.A].Pod
		if pod < 0 {
			pod = t.Nodes[l.B].Pod
		}
		shards[i] = pod
	}
	return shards
}

// NumPods returns the number of distinct pods in the topology.
func NumPods(t *Topology) int {
	max := -1
	for _, n := range t.Nodes {
		if n.Pod > max {
			max = n.Pod
		}
	}
	return max + 1
}
