package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"corropt/internal/rngutil"
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

// oracleSegments is the optimizer's earlier bitset-and-map segmentation,
// kept as the differential reference for segments: one upstream-cone
// bitset per violated ToR, their union for pruning, a probe of every cone
// per contested link, union by shared ToR through a map, and groups
// collected through a map, sorted by first link, with sorted and
// deduplicated ToRs.
func oracleSegments(topo *topology.Topology, cfg OptimizerConfig, active []topology.LinkID, violated []topology.SwitchID, st *OptimizeStats) ([]topology.LinkID, []segment) {
	torUp := make([]*topology.LinkSet, len(violated))
	upstream := topology.NewLinkSet(topo.NumLinks())
	for i, tor := range violated {
		torUp[i] = topology.NewLinkSet(topo.NumLinks())
		topo.UpstreamLinkSet([]topology.SwitchID{tor}, torUp[i])
		upstream.Union(torUp[i])
	}
	var safe, contested []topology.LinkID
	if cfg.DisablePruning {
		contested = append(contested, active...)
	} else {
		for _, l := range active {
			if upstream.Has(l) {
				contested = append(contested, l)
			} else {
				safe = append(safe, l)
			}
		}
		st.SafelyDisabled = len(safe)
	}
	if len(contested) == 0 {
		return safe, nil
	}

	affected := make([][]topology.SwitchID, len(contested))
	for i, l := range contested {
		for j, tor := range violated {
			if torUp[j].Has(l) {
				affected[i] = append(affected[i], tor)
			}
		}
	}
	parent := make([]int, len(contested))
	for i := range parent {
		parent[i] = i
	}
	root := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[root(a)] = root(b) }
	if cfg.DisableSegmentation {
		for i := 1; i < len(contested); i++ {
			union(0, i)
		}
	} else {
		torOwner := make(map[topology.SwitchID]int)
		for i := range contested {
			for _, tor := range affected[i] {
				if prev, ok := torOwner[tor]; ok {
					union(prev, i)
				} else {
					torOwner[tor] = i
				}
			}
		}
	}

	groups := make(map[int]*segment)
	for i, l := range contested {
		r := root(i)
		g, ok := groups[r]
		if !ok {
			g = &segment{}
			groups[r] = g
		}
		g.links = append(g.links, l)
		g.tors = append(g.tors, affected[i]...)
	}
	out := make([]segment, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	slices.SortFunc(out, func(a, b segment) int { return cmp.Compare(a.links[0], b.links[0]) })
	for i := range out {
		slices.Sort(out[i].tors)
		out[i].tors = slices.Compact(out[i].tors)
		if len(out[i].links) > st.LargestSegment {
			st.LargestSegment = len(out[i].links)
		}
	}
	st.Segments = len(out)
	return safe, out
}

// scanActive lists the enabled links at or above threshold by a full rate
// scan, independently of Network's bitset walk.
func scanActive(net *Network, threshold float64) []topology.LinkID {
	var out []topology.LinkID
	for l := 0; l < net.Topology().NumLinks(); l++ {
		id := topology.LinkID(l)
		if net.CorruptionRate(id) >= threshold && !net.Disabled(id) {
			out = append(out, id)
		}
	}
	return out
}

// oracleRun is Optimizer.Run with the active set from scanActive and the
// segments from oracleSegments.
func oracleRun(o *Optimizer, threshold float64) ([]topology.LinkID, OptimizeStats) {
	var st OptimizeStats
	active := scanActive(o.net, threshold)
	st.Active = len(active)
	if len(active) == 0 {
		return nil, st
	}
	violated, _ := o.net.violatedUnder(active, nil, nil)
	if len(violated) == 0 {
		for _, l := range active {
			o.net.Disable(l)
		}
		st.SafelyDisabled = len(active)
		return active, st
	}
	safe, segs := oracleSegments(o.net.Topology(), o.cfg, active, violated, &st)
	return o.disable(safe, segs, &st), st
}

// sameSegments reports whether two segment lists match link for link and
// ToR for ToR, in order (nil and empty slices are equal).
func sameSegments(a, b []segment) bool {
	return slices.EqualFunc(a, b, func(x, y segment) bool {
		return slices.Equal(x.links, y.links) && slices.Equal(x.tors, y.tors)
	})
}

// segmentCoverage counts what the differential checks exercised, so the
// test can fail if its random networks stop reaching the contested path.
type segmentCoverage struct {
	contested, multiSegment, idleToR int
}

// checkSegmentsMatchOracle compares, on the current state of twin networks
// a and b, the optimizer's segments against oracleSegments on a, then one
// Run of oa on a against oracleRun of ob on b.
func checkSegmentsMatchOracle(t *testing.T, name string, oa, ob *Optimizer, threshold float64, cov *segmentCoverage) {
	t.Helper()
	a := oa.net
	active := scanActive(a, threshold)
	if got := a.AppendActiveCorrupting(nil, threshold); !slices.Equal(got, active) {
		t.Fatalf("%s: AppendActiveCorrupting = %v, full scan %v", name, got, active)
	}
	if got := a.NumActiveCorrupting(threshold); got != len(active) {
		t.Fatalf("%s: NumActiveCorrupting = %d, full scan %d", name, got, len(active))
	}
	if violated, _ := a.violatedUnder(active, nil, nil); len(active) > 0 && len(violated) > 0 {
		var gotSt, wantSt OptimizeStats
		safe, segs := oa.segments(active, violated, &gotSt)
		wantSafe, wantSegs := oracleSegments(a.Topology(), oa.cfg, active, violated, &wantSt)
		if !slices.Equal(safe, wantSafe) {
			t.Fatalf("%s: safe %v, oracle %v", name, safe, wantSafe)
		}
		if !sameSegments(segs, wantSegs) {
			t.Fatalf("%s: segments %v, oracle %v", name, segs, wantSegs)
		}
		if gotSt != wantSt {
			t.Fatalf("%s: segment stats %+v, oracle %+v", name, gotSt, wantSt)
		}
		cov.contested++
		if len(segs) > 1 {
			cov.multiSegment++
		}
		inSeg := 0
		for _, seg := range segs {
			inSeg += len(seg.tors)
		}
		if inSeg < len(violated) {
			cov.idleToR++
		}
	}
	got, gotSt := oa.Run(threshold)
	want, wantSt := oracleRun(ob, threshold)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Run disabled %v, oracle %v", name, got, want)
	}
	if gotSt != wantSt {
		t.Fatalf("%s: Run stats %+v, oracle %+v", name, gotSt, wantSt)
	}
}

// randomSegmentNetwork builds a seeded random Clos or multi-tier network
// with heterogeneous constraints, corruption clustered on a few ToRs'
// uplinks plus scattered background faults, and a few links already down.
func randomSegmentNetwork(t *testing.T, seed uint64) *Network {
	t.Helper()
	rng := rngutil.New(seed)
	var topo *topology.Topology
	var err error
	if rng.Bool(0.25) {
		widths := []int{4 + rng.Intn(8), 2 + rng.Intn(4), 2 + rng.Intn(3), 1 + rng.Intn(3)}
		fanout := make([]int, len(widths)-1)
		for i := range fanout {
			fanout[i] = 1 + rng.Intn(min(2, widths[i+1]))
		}
		topo, err = topology.NewMultiTier(widths, fanout)
	} else {
		topo, err = topology.NewClos(topology.ClosConfig{
			Pods:               1 + rng.Intn(4),
			ToRsPerPod:         1 + rng.Intn(6),
			AggsPerPod:         1 + rng.Intn(4),
			Spines:             4 + rng.Intn(6),
			SpineUplinksPerAgg: 1 + rng.Intn(4),
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(topo, rng.Range(0.3, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	tors := topo.ToRs()
	for _, tor := range tors {
		if rng.Bool(0.2) {
			if err := net.SetToRConstraint(tor, rng.Range(0.1, 0.95)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		for _, l := range topo.Switch(tors[rng.Intn(len(tors))]).Uplinks {
			net.SetCorruption(l, math.Pow(10, rng.Range(-6, -2)))
		}
	}
	for i := 0; i < topo.NumLinks()/8; i++ {
		net.SetCorruption(topology.LinkID(rng.Intn(topo.NumLinks())), math.Pow(10, rng.Range(-8, -2)))
	}
	for i := 0; i < rng.Intn(4); i++ {
		net.Disable(topology.LinkID(rng.Intn(topo.NumLinks())))
	}
	return net
}

// segmentConfigs are the four pruning × segmentation combinations plus the
// parallel solver. MaxExactLinks keeps the exact search small; the
// differential is over what the solver is given, not its depth.
var segmentConfigs = []struct {
	name string
	cfg  OptimizerConfig
}{
	{"default", OptimizerConfig{MaxExactLinks: 12}},
	{"no-pruning", OptimizerConfig{MaxExactLinks: 12, DisablePruning: true}},
	{"no-segmentation", OptimizerConfig{MaxExactLinks: 12, DisableSegmentation: true}},
	{"neither", OptimizerConfig{MaxExactLinks: 12, DisablePruning: true, DisableSegmentation: true}},
	{"workers-2", OptimizerConfig{MaxExactLinks: 12, Workers: 2}},
}

// TestSegmentsMatchOracle pins the one-walk segmentation to the bitset
// oracle: the same safe set, the same segments (links, ToRs, order) and
// the same stats, and then the same Run result. Each seeded network goes
// through several repair rounds on one optimizer, so the reused scratch is
// checked too.
func TestSegmentsMatchOracle(t *testing.T) {
	const threshold = 1e-6
	for _, c := range segmentConfigs {
		t.Run(c.name, func(t *testing.T) {
			var cov segmentCoverage
			nets := 0 // networks that reached segmentation at least once
			for seed := uint64(0); seed < 60; seed++ {
				before := cov.contested
				a, b := randomSegmentNetwork(t, seed), randomSegmentNetwork(t, seed)
				oa, ob := NewOptimizer(a, nil, c.cfg), NewOptimizer(b, nil, c.cfg)
				rng := rngutil.New(seed + 1000)
				for round := 0; round < 4; round++ {
					checkSegmentsMatchOracle(t, fmt.Sprintf("seed %d round %d", seed, round), oa, ob, threshold, &cov)
					// Repair some disabled links and report new faults,
					// identically on both networks.
					for l := 0; l < a.Topology().NumLinks(); l++ {
						id := topology.LinkID(l)
						if a.Disabled(id) && rng.Bool(0.4) {
							a.Enable(id)
							b.Enable(id)
							if rng.Bool(0.5) {
								a.SetCorruption(id, 0)
								b.SetCorruption(id, 0)
							}
						}
					}
					for i := 0; i < 3; i++ {
						l := topology.LinkID(rng.Intn(a.Topology().NumLinks()))
						r := math.Pow(10, rng.Range(-7, -2))
						a.SetCorruption(l, r)
						b.SetCorruption(l, r)
					}
				}
				if cov.contested > before {
					nets++
				}
			}
			t.Logf("%d networks segmented; %+v", nets, cov)
			if nets < 50 || cov.idleToR == 0 || (cov.multiSegment == 0) != c.cfg.DisableSegmentation {
				t.Fatalf("random networks under-exercise segmentation: %+v", cov)
			}
		})
	}
}

// TestSegmentsIdleEndangeredToR covers an endangered ToR whose cone holds
// no active link: it is in the violated set only because links already
// down starve it, so it must join no segment while the other pod's
// contested links are still segmented.
func TestSegmentsIdleEndangeredToR(t *testing.T) {
	topo := segmentTestTopo(t)
	segs := topo.Partition()
	for _, c := range segmentConfigs {
		build := func() *Network {
			net, err := NewNetwork(topo, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			corruptSegmentPattern(net, topo, segs)
			// Starve pod 1's first ToR with healthy links already down.
			for _, l := range topo.Switch(segs[1].ToRs[0]).Uplinks[1:] {
				net.Disable(l)
			}
			return net
		}
		a, b := build(), build()
		oa, ob := NewOptimizer(a, nil, c.cfg), NewOptimizer(b, nil, c.cfg)
		var cov segmentCoverage
		checkSegmentsMatchOracle(t, c.name, oa, ob, 1e-6, &cov)
		if cov.idleToR != 1 {
			t.Fatalf("%s: no idle endangered ToR reached the segmentation (%+v)", c.name, cov)
		}
	}
}

// TestSegmentsEverythingDisables covers a run where every active link can
// go: the optimizer disables all of them without segmenting.
func TestSegmentsEverythingDisables(t *testing.T) {
	topo := segmentTestTopo(t)
	for _, c := range segmentConfigs {
		build := func() *Network {
			net, err := NewNetwork(topo, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			for _, tor := range topo.ToRs()[:3] {
				net.SetCorruption(topo.Switch(tor).Uplinks[0], 1e-4)
			}
			return net
		}
		a, b := build(), build()
		oa, ob := NewOptimizer(a, nil, c.cfg), NewOptimizer(b, nil, c.cfg)
		var cov segmentCoverage
		checkSegmentsMatchOracle(t, c.name, oa, ob, 1e-6, &cov)
		if cov.contested != 0 || a.NumDisabled() != 3 || a.NumActiveCorrupting(1e-6) != 0 {
			t.Fatalf("%s: expected all 3 active links disabled without segmentation (%+v, %d disabled)", c.name, cov, a.NumDisabled())
		}
	}
}
