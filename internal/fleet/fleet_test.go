package fleet

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// testFleetTopos builds a small heterogeneous fleet: three Clos shapes, the
// first two sharing one *Topology to exercise the partition cache.
func testFleetTopos(t testing.TB) []DCN {
	shared, err := topology.NewClos(topology.ClosConfig{
		Pods: 3, ToRsPerPod: 4, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2, BreakoutSize: 2,
	})
	if err != nil {
		t.Fatalf("NewClos: %v", err)
	}
	other, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 3, AggsPerPod: 3, Spines: 6, SpineUplinksPerAgg: 3, BreakoutSize: 0,
	})
	if err != nil {
		t.Fatalf("NewClos: %v", err)
	}
	return []DCN{
		{Name: "east", Topo: shared},
		{Name: "west", Topo: shared},
		{Name: "north", Topo: other},
	}
}

// synthesizeEvents generates a deterministic corruption/repair stream over
// the fleet: monotonically increasing times, repairs drawn from the set of
// previously corrupted links, rates straddling the detection threshold.
func synthesizeEvents(dcns []DCN, seed uint64, n int) []Event {
	rng := rngutil.New(seed).Split("fleet-events")
	type key struct {
		dcn  int
		link topology.LinkID
	}
	var down []key
	evs := make([]Event, 0, n)
	at := time.Duration(0)
	for len(evs) < n {
		at += time.Duration(rng.Intn(900)+100) * time.Millisecond
		if len(down) > 0 && rng.Bool(0.45) {
			i := rng.Intn(len(down))
			k := down[i]
			down[i] = down[len(down)-1]
			down = down[:len(down)-1]
			evs = append(evs, Event{At: at, DCN: k.dcn, Link: k.link, Kind: Repair})
			continue
		}
		dcn := rng.Intn(len(dcns))
		link := topology.LinkID(rng.Intn(dcns[dcn].Topo.NumLinks()))
		rate := 1e-6 * rng.Range(0.2, 50)
		evs = append(evs, Event{At: at, DCN: dcn, Link: link, Kind: Corruption, Rate: rate})
		down = append(down, key{dcn, link})
	}
	return evs
}

// runFleet replays evs in batches, flushing after each. With
// snapshotEvery set it also takes a Snapshot after every Flush, which must
// not perturb the final state.
func runFleet(t testing.TB, dcns []DCN, evs []Event, workers, batch int, snapshotEvery bool) (*Supervisor, Snapshot) {
	sup, err := New(dcns, Config{Workers: workers, Capacity: 0.5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for lo := 0; lo < len(evs); lo += batch {
		hi := min(lo+batch, len(evs))
		if err := sup.Ingest(evs[lo:hi]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := sup.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if snapshotEvery {
			_ = sup.Snapshot()
		}
	}
	return sup, sup.Snapshot()
}

// TestFleetMatchesSerial is the headline differential: for a fixed event
// stream, the snapshot — counters, tickets, floats, per-DCN rows — is
// byte-identical for every worker count and flush batching, and reading
// snapshots mid-stream leaves the final one unchanged.
func TestFleetMatchesSerial(t *testing.T) {
	dcns := testFleetTopos(t)
	evs := synthesizeEvents(dcns, 42, 4000)

	_, ref := runFleet(t, dcns, evs, 1, len(evs), false)
	if ref.Disabled == 0 || ref.Blocked == 0 || ref.ReoptDisabled == 0 || ref.Cleared == 0 {
		t.Fatalf("stream does not exercise all decision paths: %+v", ref)
	}
	refStr := ref.String()

	for _, tc := range []struct {
		workers, batch int
		snapshotEvery  bool
	}{
		{8, 512, false}, // 8 workers, small batches
		{3, 4000, false},
		{2, 1000, false},
		{4, 64, false},
		{2, 7, true}, // a snapshot read after every Flush
	} {
		_, got := runFleet(t, dcns, evs, tc.workers, tc.batch, tc.snapshotEvery)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d batch=%d snapshotEvery=%v: snapshot diverged\n got: %+v\nwant: %+v",
				tc.workers, tc.batch, tc.snapshotEvery, got, ref)
		}
		if s := got.String(); s != refStr {
			t.Errorf("workers=%d batch=%d snapshotEvery=%v: rendering diverged\n got:\n%s\nwant:\n%s",
				tc.workers, tc.batch, tc.snapshotEvery, s, refStr)
		}
	}
}

// TestFleetInvariants replays a stream and then checks the supervisor's
// cross-segment invariants against independent recomputation: the penalty
// sum against a from-scratch walk over the reported disabled/rate state, and
// the capacity constraint against a fresh full-topology path counter per
// DCN.
func TestFleetInvariants(t *testing.T) {
	dcns := testFleetTopos(t)
	evs := synthesizeEvents(dcns, 7, 3000)
	sup, snap := runFleet(t, dcns, evs, 4, 700, false)

	// Shadow state from the event stream: last reported rate per link.
	rates := make([]map[topology.LinkID]float64, len(dcns))
	for i := range rates {
		rates[i] = make(map[topology.LinkID]float64)
	}
	for _, ev := range evs {
		if ev.Kind == Corruption {
			rates[ev.DCN][ev.Link] = ev.Rate
		} else {
			rates[ev.DCN][ev.Link] = 0
		}
	}

	const capacity = 0.5
	wantPenalty := 0.0
	totalDown := 0
	for i, d := range dcns {
		down := sup.Disabled(i)
		totalDown += len(down)
		isDown := make(map[topology.LinkID]bool, len(down))
		for _, l := range down {
			isDown[l] = true
		}
		// Penalty: corrupting links still enabled, in ascending link order.
		for l := 0; l < d.Topo.NumLinks(); l++ {
			if r := rates[i][topology.LinkID(l)]; r > 0 && !isDown[topology.LinkID(l)] {
				wantPenalty += r // LinearPenalty
			}
		}
		// Capacity: every ToR keeps >= capacity of its paths on a fresh
		// full-topology counter with the fleet's disabled set applied.
		set := topology.NewLinkSet(d.Topo.NumLinks())
		for _, l := range down {
			set.Add(l)
		}
		pc := topology.NewPathCounter(d.Topo)
		counts := pc.Count(set.Func())
		total := pc.Total()
		for _, tor := range d.Topo.ToRs() {
			frac := 1.0
			if total[tor] > 0 {
				frac = float64(counts[tor]) / float64(total[tor])
			}
			if frac+1e-9 < capacity {
				t.Errorf("DCN %s ToR %d at %.4f < %.2f: fleet violated the capacity constraint",
					d.Name, tor, frac, capacity)
			}
		}
	}
	if snap.DisabledNow != totalDown {
		t.Errorf("snapshot reports %d links down, Disabled() lists %d", snap.DisabledNow, totalDown)
	}
	if diff := snap.PenaltySum - wantPenalty; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("penalty sum %.12g, reference %.12g", snap.PenaltySum, wantPenalty)
	}
	if snap.ViolatedToRs != 0 {
		t.Errorf("%d ToRs violated; the controller must never violate capacity", snap.ViolatedToRs)
	}
	if snap.TicketsOpened != snap.Disabled+snap.ReoptDisabled {
		t.Errorf("tickets opened %d != disables %d", snap.TicketsOpened, snap.Disabled+snap.ReoptDisabled)
	}
	if snap.TicketsOpen != snap.TicketsOpened-snap.TicketsResolved {
		t.Errorf("open tickets inconsistent: %+v", snap)
	}
}

// TestFleetRouteErrors pins input validation.
func TestFleetRouteErrors(t *testing.T) {
	dcns := testFleetTopos(t)
	sup, err := New(dcns, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, ev := range []Event{
		{DCN: -1, Link: 0, Kind: Corruption, Rate: 1e-5},
		{DCN: 3, Link: 0, Kind: Corruption, Rate: 1e-5},
		{DCN: 0, Link: -1, Kind: Corruption, Rate: 1e-5},
		{DCN: 0, Link: topology.LinkID(dcns[0].Topo.NumLinks()), Kind: Corruption, Rate: 1e-5},
		{DCN: 0, Link: 0, Kind: EventKind(9), Rate: 1e-5},
		{DCN: 0, Link: 0, Kind: Corruption, Rate: -1},
		{DCN: 0, Link: 0, Kind: Corruption, Rate: math.NaN()},
		{DCN: 0, Link: 0, Kind: Corruption, Rate: math.Inf(1)},
	} {
		if err := sup.Route(ev); err == nil {
			t.Errorf("Route(%+v) accepted, want error", ev)
		}
	}
	if sup.Pending() != 0 {
		t.Errorf("rejected events left %d pending", sup.Pending())
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Errorf("New(nil) accepted, want error")
	}
	if _, err := New([]DCN{{Name: "x"}}, Config{}); err == nil {
		t.Errorf("New with nil topology accepted, want error")
	}
}

// TestFleetShardPacking checks the unit layer directly: shards never span
// DCNs, and every link is covered exactly once.
func TestFleetShardPacking(t *testing.T) {
	dcns := testFleetTopos(t)
	sup, err := New(dcns, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, d := range dcns {
		lo, hi := sup.dcnShards[i][0], sup.dcnShards[i][1]
		owner := make([]int, d.Topo.NumLinks())
		for j, sh := range sup.shards[lo:hi] {
			if sh.dcn != i {
				t.Fatalf("shard of DCN %d inside DCN %d's range", sh.dcn, i)
			}
			for _, src := range sh.sub.Links {
				if owner[src] != 0 {
					t.Errorf("DCN %s link %d covered by shards %d and %d", d.Name, src, owner[src]-1, j)
				}
				owner[src] = j + 1
			}
		}
		for l, o := range owner {
			if o == 0 {
				t.Errorf("DCN %s link %d covered by no shard", d.Name, l)
			}
		}
	}
}

// TestFleetOrphanSegments glues a ToR-less segment onto a neighbor so no
// shard is left without a ToR.
func TestFleetOrphanSegments(t *testing.T) {
	b := topology.NewBuilder()
	tor := b.AddSwitch("tor", 0, 0)
	agg := b.AddSwitch("agg", 1, 0)
	orphan := b.AddSwitch("orphan-agg", 1, 1)
	spine := b.AddSwitch("spine", 2, -1)
	b.AddLink(tor, agg, -1)
	b.AddLink(agg, spine, -1)
	ol := b.AddLink(orphan, spine, -1)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sup, err := New([]DCN{{Name: "odd", Topo: topo}}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(sup.shards) != 1 {
		t.Fatalf("got %d shards, want 1 (orphan glued to the ToR-bearing unit)", len(sup.shards))
	}
	// Corrupting the orphan link must disable it (no ToR depends on it).
	if err := sup.Route(Event{At: time.Second, DCN: 0, Link: ol, Kind: Corruption, Rate: 1e-3}); err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := sup.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := sup.Disabled(0); !slices.Equal(got, []topology.LinkID{ol}) {
		t.Errorf("Disabled = %v, want [%d]", got, ol)
	}
}
