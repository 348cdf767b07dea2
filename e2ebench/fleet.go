package main

import (
	"fmt"
	"time"

	"corropt/internal/fleet"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// fleetRun is fleet_replay: a seeded corruption/repair stream over 30
// copies of the large DCN, ingested and flushed in batches by a
// fleet.Supervisor with two workers. No sockets.
type fleetRun struct {
	sz     size
	events []fleet.Event
	dig    string
	// snapshot is round 0's Snapshot rendering; every later round, and
	// the traced run's Workers=1 replay, must reproduce it byte for byte.
	snapshot string
	stats    fleet.Snapshot
}

// fleetWorkers is the Flush fan-out of the measured supervisor.
const fleetWorkers = 2

func prepareFleet(seed uint64, sz size) (instance, error) {
	topo, err := topology.NewClos(sz.large)
	if err != nil {
		return nil, err
	}
	// Shaped like the fleet package's own test stream: increasing times,
	// repairs drawn from previously corrupted links, rates straddling the
	// detection threshold.
	rng := rngutil.New(seed).Split("fleet_replay")
	type key struct {
		dcn  int
		link topology.LinkID
	}
	var down []key
	f := &fleetRun{sz: sz, events: make([]fleet.Event, 0, sz.fleetEvents)}
	d := newDigester("fleet_replay")
	at := time.Duration(0)
	for len(f.events) < sz.fleetEvents {
		at += time.Duration(rng.Intn(900)+100) * time.Millisecond
		var ev fleet.Event
		if len(down) > 0 && rng.Bool(0.45) {
			i := rng.Intn(len(down))
			k := down[i]
			down[i] = down[len(down)-1]
			down = down[:len(down)-1]
			ev = fleet.Event{At: at, DCN: k.dcn, Link: k.link, Kind: fleet.Repair}
		} else {
			dcn := rng.Intn(sz.fleetDCNs)
			link := topology.LinkID(rng.Intn(topo.NumLinks()))
			ev = fleet.Event{At: at, DCN: dcn, Link: link, Kind: fleet.Corruption, Rate: 1e-6 * rng.Range(0.2, 50)}
			down = append(down, key{dcn, link})
		}
		f.events = append(f.events, ev)
		d.u64(uint64(ev.At))
		d.u64(uint64(ev.DCN)<<32 | uint64(ev.Link))
		d.u64(uint64(ev.Kind))
		d.f64(ev.Rate)
	}
	f.dig = d.sum()
	return f, nil
}

func (f *fleetRun) describe() string {
	return fmt.Sprintf("%d DCNs of %d links, %d events per round in batches of %d, Workers=%d",
		f.sz.fleetDCNs, f.sz.large.NumLinks(), len(f.events), f.sz.fleetBatch, fleetWorkers)
}

func (f *fleetRun) digest() string { return f.dig }

// newSupervisor builds the fleet: one shared topology, fleetDCNs members.
func (f *fleetRun) newSupervisor(workers int) (*fleet.Supervisor, error) {
	topo, err := topology.NewClos(f.sz.large)
	if err != nil {
		return nil, err
	}
	dcns := make([]fleet.DCN, f.sz.fleetDCNs)
	for i := range dcns {
		dcns[i] = fleet.DCN{Topo: topo}
	}
	return fleet.New(dcns, fleet.Config{Workers: workers})
}

func (f *fleetRun) round(i int, tr *tracer) round {
	var r round
	t0 := time.Now()
	sup, err := f.newSupervisor(fleetWorkers)
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	r.setup = time.Since(t0)

	m0 := mallocs()
	start := time.Now()
	for lo, b := 0, 0; lo < len(f.events); lo, b = lo+f.sz.fleetBatch, b+1 {
		hi := min(lo+f.sz.fleetBatch, len(f.events))
		root := tr.begin("fleet.batch", -1, int64(b))
		t := time.Now()
		id := tr.begin("fleet.ingest", root, int64(b))
		err := sup.Ingest(f.events[lo:hi])
		tr.end(id)
		if err == nil {
			id = tr.begin("fleet.flush", root, int64(b))
			err = sup.Flush()
			tr.end(id)
		}
		tr.end(root)
		r.attempted += hi - lo
		r.lat = append(r.lat, float64(time.Since(t).Nanoseconds())/1e6)
		if err != nil {
			r.fail("batch %d: %v", b, err)
			r.lat[len(r.lat)-1] = inf
			continue
		}
		r.ops += hi - lo
	}
	r.work = time.Since(start)
	r.mallocs = mallocs() - m0

	snap := sup.Snapshot()
	r.check(snap.ViolatedToRs == 0, "%d ToRs violate their capacity constraint", snap.ViolatedToRs)
	r.check(snap.Events == len(f.events), "snapshot counts %d events, %d were routed", snap.Events, len(f.events))
	s := snap.String()
	if i == 0 && f.snapshot == "" {
		f.snapshot, f.stats = s, snap
	}
	r.check(s == f.snapshot, "round snapshot differs from round 0's")
	return r
}

func (f *fleetRun) layers(out map[string]metric, plain, traced []round, spans []span) error {
	// The determinism contract: a serial supervisor renders the same bytes.
	sup, err := f.newSupervisor(1)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(f.events); lo += f.sz.fleetBatch {
		if err := sup.Ingest(f.events[lo:min(lo+f.sz.fleetBatch, len(f.events))]); err != nil {
			return err
		}
		if err := sup.Flush(); err != nil {
			return err
		}
	}
	if got := sup.Snapshot().String(); got != f.snapshot {
		return fmt.Errorf("Workers=1 snapshot differs from Workers=%d:\n%s\nvs\n%s", fleetWorkers, got, f.snapshot)
	}

	self := selfTimes(spans)
	ingest, _ := spanStats(spans, self, "fleet.ingest")
	flush, _ := spanStats(spans, self, "fleet.flush")
	var total float64
	for _, d := range ingest {
		total += d
	}
	var events, allocs float64
	for _, r := range traced {
		events += float64(r.ops)
	}
	if events > 0 {
		setLayer(out, "fleet.ingest_ns_per_event", total/events)
	}
	setLayer(out, "fleet.flush_ms_per_batch", median(flush)/1e6)
	events = 0
	for _, r := range plain {
		events += float64(r.ops)
		allocs += float64(r.mallocs)
	}
	if events > 0 {
		setLayer(out, "fleet.allocs_per_event", allocs/events)
	}
	st := f.stats
	if n := st.Disabled + st.Blocked; n > 0 {
		setLayer(out, "fleet.blocked_ratio", float64(st.Blocked)/float64(n))
	}
	if st.Repairs > 0 {
		setLayer(out, "fleet.reopt_disabled_per_repair", float64(st.ReoptDisabled)/float64(st.Repairs))
	}
	setLayer(out, "tickets.opened", float64(st.TicketsOpened))
	return nil
}
