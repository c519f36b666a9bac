package netsim

import (
	"errors"
	"slices"
	"testing"
)

// pathByScan is Path as it was before the far-end and down-link tables:
// every hop found by walking a node's adjacency list and loading each
// Link to find its far end. It is the reference the table-driven Path
// must match link for link and error for error.
func (t *Topology) pathByScan(buf []int, src, dst int, hash uint64) ([]int, error) {
	if src < 0 || src >= len(t.Nodes) || dst < 0 || dst >= len(t.Nodes) {
		return nil, errors.New("netsim: node out of range")
	}
	if t.Nodes[src].Kind != NodeHost || t.Nodes[dst].Kind != NodeHost {
		return nil, errors.New("netsim: paths are host-to-host")
	}
	if src == dst {
		return buf, nil
	}
	upLinks := t.adj[src]
	if len(upLinks) == 0 {
		return nil, errors.New("netsim: host has no uplink")
	}
	l0 := t.Links[upLinks[0]]
	edgeSrc := t.peer(l0, src)
	ld := t.Links[t.adj[dst][0]]
	edgeDst := t.peer(ld, dst)
	if edgeSrc == edgeDst {
		return append(buf, l0.ID, ld.ID), nil
	}
	aggLinks := t.up[edgeSrc]
	if len(aggLinks) == 0 {
		return nil, errors.New("netsim: edge has no agg uplinks")
	}
	la := aggLinks[int(hash%uint64(len(aggLinks)))]
	agg := t.peer(t.Links[la], edgeSrc)
	for _, lid := range t.adj[agg] {
		if t.peer(t.Links[lid], agg) == edgeDst {
			return append(buf, l0.ID, la, lid, ld.ID), nil
		}
	}
	if t.Nodes[edgeSrc].Pod == t.Nodes[edgeDst].Pod {
		return nil, errors.New("netsim: intra-pod path broken")
	}
	coreLinks := t.up[agg]
	if len(coreLinks) == 0 {
		return nil, errors.New("netsim: agg has no core uplinks")
	}
	lc := coreLinks[int((hash/7)%uint64(len(coreLinks)))]
	core := t.peer(t.Links[lc], agg)
	laDown, aggDown := -1, -1
	for _, lid := range t.adj[core] {
		p := t.peer(t.Links[lid], core)
		if t.Nodes[p].Kind == NodeAgg && t.Nodes[p].Pod == t.Nodes[edgeDst].Pod {
			laDown, aggDown = lid, p
			break
		}
	}
	if laDown < 0 {
		return nil, errors.New("netsim: core not connected to destination pod")
	}
	for _, lid := range t.adj[aggDown] {
		if t.peer(t.Links[lid], aggDown) == edgeDst {
			return append(buf, l0.ID, la, lc, laDown, lid, ld.ID), nil
		}
	}
	return nil, errors.New("netsim: cross-pod path broken")
}

// raggedFleet is a three-pod fleet whose core 1 skips pod 2 and whose pod
// 1 has a leaf cut off from spine 0, so Path's error exits are reached
// from host pairs too: a core with no link into the destination pod, and
// an aggregation switch with no link down to the destination leaf. Pod
// 0's first leaf and first spine, and that spine and core 0, are joined
// twice, so a lookup that took the last of two parallel links where the
// scan takes the first would differ.
func raggedFleet() *Topology {
	t := &Topology{}
	cores := []int{t.addNode(NodeCore, -1), t.addNode(NodeCore, -1)}
	for p := range 3 {
		leaves := []int{t.addNode(NodeEdge, p), t.addNode(NodeEdge, p)}
		spines := []int{t.addNode(NodeAgg, p), t.addNode(NodeAgg, p)}
		for li, leaf := range leaves {
			t.addLink(t.addNode(NodeHost, p), leaf, TierHostToR, 100e9)
			t.addLink(t.addNode(NodeHost, p), leaf, TierHostToR, 100e9)
			for si, s := range spines {
				if p == 1 && li == 1 && si == 0 {
					continue
				}
				t.addLink(leaf, s, TierToRAgg, 100e9)
			}
		}
		for i, s := range spines {
			if p == 2 && i == 1 {
				continue
			}
			t.addLink(s, cores[i], TierAggCore, 100e9)
		}
		if p == 0 {
			t.addLink(leaves[0], spines[0], TierToRAgg, 100e9)
			t.addLink(spines[0], cores[0], TierAggCore, 100e9)
		}
	}
	t.index()
	return t
}

// TestPathMatchesAdjacencyScan: for every host pair and hashes 0–63, on
// the fleet-day fleet, a one-pod fleet, two fat-trees, a leaf-spine and a
// ragged fleet, the table-driven Path returns the links and the error the
// adjacency scan returns. The fleet-day fleet's 921,600 pairs get 8 of
// the 64 hashes each, rotated from pair to pair so that every hash is
// tried on every source; under the race detector every pair gets an
// eighth of its hashes.
func TestPathMatchesAdjacencyScan(t *testing.T) {
	build := map[string]func() (*Topology, error){
		"fleet 12x10x6x8": func() (*Topology, error) { return NewFleet(12, 10, 6, 8, 100e9) },
		"fleet 1x4x3x4":   func() (*Topology, error) { return NewFleet(1, 4, 3, 4, 100e9) },
		"fat-tree k=4":    func() (*Topology, error) { return NewFatTree(4, 100e9) },
		"fat-tree k=8":    func() (*Topology, error) { return NewFatTree(8, 100e9) },
		"leaf-spine":      func() (*Topology, error) { return NewLeafSpine(6, 4, 5, 100e9) },
		"ragged fleet":    func() (*Topology, error) { return raggedFleet(), nil },
	}
	errorsSeen := 0
	for name, mk := range build {
		topo, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		hosts := topo.Hosts()
		hashes := 64
		if len(hosts) > 256 {
			hashes = 8
		}
		if raceEnabled {
			hashes /= 8
		}
		var got, want [maxPath]int
		pair := 0
		for _, src := range hosts {
			for _, dst := range hosts {
				pair++
				for j := range hashes {
					hash := uint64(pair+j*64/hashes) % 64
					g, gErr := topo.Path(got[:0], src, dst, hash)
					w, wErr := topo.pathByScan(want[:0], src, dst, hash)
					if (gErr == nil) != (wErr == nil) || gErr != nil && gErr.Error() != wErr.Error() || !slices.Equal(g, w) {
						t.Fatalf("%s: Path(%d, %d, %d) = %v, %v; the adjacency scan gives %v, %v", name, src, dst, hash, g, gErr, w, wErr)
					}
					if wErr != nil {
						errorsSeen++
					}
				}
			}
		}
		// Node pairs that are not host pairs fail alike.
		for _, pair := range [][2]int{{-1, hosts[0]}, {hosts[0], len(topo.Nodes)}, {0, hosts[0]}} {
			_, gErr := topo.Path(nil, pair[0], pair[1], 0)
			_, wErr := topo.pathByScan(nil, pair[0], pair[1], 0)
			if gErr == nil || gErr.Error() != wErr.Error() {
				t.Fatalf("%s: Path(%d, %d) error %v, the scan's %v", name, pair[0], pair[1], gErr, wErr)
			}
		}
	}
	if errorsSeen == 0 {
		t.Fatal("no host pair reached an error exit; the ragged fleet is not ragged")
	}
}
