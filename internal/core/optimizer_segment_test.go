package core

import (
	"slices"
	"testing"

	"corropt/internal/topology"
)

// segmentTestTopo is a 4-pod Clos whose pods partition into 4 independent
// segments, with enough corrupting links per pod that the optimizer has both
// safe disables and contested capacity decisions to make.
func segmentTestTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods:               4,
		ToRsPerPod:         6,
		AggsPerPod:         3,
		Spines:             9,
		SpineUplinksPerAgg: 3,
		BreakoutSize:       0,
	})
	if err != nil {
		t.Fatalf("NewClos: %v", err)
	}
	return topo
}

// corruptSegmentPattern corrupts, in pods 0 and 2: every uplink of the pod's
// first ToR (so disabling all of them would violate capacity), plus a few
// agg→spine links.
func corruptSegmentPattern(net *Network, topo *topology.Topology, segs []topology.Segment) {
	for _, si := range []int{0, 2} {
		seg := segs[si]
		tor := seg.ToRs[0]
		for _, l := range topo.Switch(tor).Uplinks {
			net.SetCorruption(l, 1e-3)
		}
		// Every third agg→spine link of the segment.
		n := 0
		for _, l := range seg.Links {
			if topo.Switch(topo.Link(l).Lower).Stage == 1 {
				if n%3 == 0 {
					net.SetCorruption(l, 1e-4)
				}
				n++
			}
		}
	}
}

// TestSegmentRunsMatchRun pins the sharding contract the fleet relies on:
// one Run per cone-closed segment, each over a Network of that segment's
// own SegmentGraph, chooses exactly the links a single whole-topology Run
// does.
func TestSegmentRunsMatchRun(t *testing.T) {
	topo := segmentTestTopo(t)
	segs := topo.Partition()
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4", len(segs))
	}

	const threshold = 1e-6
	netFull, err := NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	corruptSegmentPattern(netFull, topo, segs)
	// Each segment network is seeded from these rates.
	rates := make([]float64, topo.NumLinks())
	for l := range rates {
		rates[l] = netFull.CorruptionRate(topology.LinkID(l))
	}
	full, fullStats := NewOptimizer(netFull, nil, OptimizerConfig{}).Run(threshold)
	if fullStats.Active == 0 || len(full) == 0 {
		t.Fatalf("reference Run disabled nothing (stats %+v)", fullStats)
	}
	if len(full) == fullStats.Active {
		t.Fatalf("reference Run disabled every active link; pattern does not exercise capacity decisions")
	}

	var perSeg []topology.LinkID
	activeTotal := 0
	for i, seg := range segs {
		sub, err := topo.SegmentGraph([]topology.Segment{seg})
		if err != nil {
			t.Fatalf("segment %d: SegmentGraph: %v", i, err)
		}
		net, err := NewNetwork(sub.Topo, 0.5)
		if err != nil {
			t.Fatalf("segment %d: NewNetwork: %v", i, err)
		}
		for local, src := range sub.Links {
			net.SetCorruption(topology.LinkID(local), rates[src])
		}
		chosen, st := NewOptimizer(net, nil, OptimizerConfig{}).Run(threshold)
		for _, l := range chosen {
			perSeg = append(perSeg, sub.Links[l])
		}
		activeTotal += st.Active
		if !net.Feasible(nil) {
			t.Errorf("segment %d: network left infeasible", i)
		}
	}
	if activeTotal != fullStats.Active {
		t.Errorf("segment runs saw %d active links, full run %d", activeTotal, fullStats.Active)
	}

	sortedFull := slices.Clone(full)
	slices.Sort(sortedFull)
	slices.Sort(perSeg)
	if !slices.Equal(sortedFull, perSeg) {
		t.Fatalf("per-segment disables %v != full-run disables %v", perSeg, sortedFull)
	}
	if !netFull.Feasible(nil) {
		t.Fatalf("full network left infeasible")
	}
}
