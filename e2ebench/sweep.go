package main

import (
	"fmt"
	"net"
	"slices"
	"time"

	"corropt/internal/core"
	"corropt/internal/detector"
	"corropt/internal/faults"
	"corropt/internal/rngutil"
	"corropt/internal/snmplite"
	"corropt/internal/telemetry"
	"corropt/internal/tickets"
	"corropt/internal/topology"
)

// sweep is monitor_sweep: the whole Figure 13 loop, one 15-minute virtual
// interval at a time. Faults land; the collector polls ground truth; the
// detector sweeps every link's counters over snmplite; each new corrupting
// link is reported over ctlplane; disabled links are diagnosed and
// ticketed; due repairs are fixed, resolved and activated.
type sweep struct {
	sz        size
	seed      uint64
	intervals [][]*faults.Fault
	dig       string
	// transcript is round 0's digest of events and replies; every later
	// round must reproduce it.
	transcript string
	// lastOps and lastGot are round 0's controller requests and replies,
	// replayed in process for the core and codec metrics.
	lastOps []engineOp
	lastGot []opResult
}

func prepareSweep(seed uint64, sz size) (instance, error) {
	topo, err := topology.NewClos(sz.medium)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(topo, tech(), faults.InjectorConfig{}, rngutil.New(seed).Split("monitor_sweep"))
	if err != nil {
		return nil, err
	}
	s := &sweep{sz: sz, seed: seed}
	d := newDigester("monitor_sweep")
	for k := 0; k < sz.sweepIntervals; k++ {
		var fs []*faults.Fault
		for j := 0; j < sz.sweepFaults; j++ {
			f := inj.NewFault(time.Duration(k) * telemetry.DefaultInterval)
			fs = append(fs, f)
			d.u64(uint64(k))
			d.u64(uint64(f.Cause))
			for _, e := range f.Effects {
				d.u64(uint64(e.Link))
				d.f64(float64(e.ExtraLossFrom[0]))
				d.f64(float64(e.ExtraLossFrom[1]))
				d.f64(float64(e.TxDecay[0]))
				d.f64(float64(e.TxDecay[1]))
				d.f64(e.DirectRate[0])
				d.f64(e.DirectRate[1])
			}
		}
		s.intervals = append(s.intervals, fs)
	}
	d.u64(seed) // the collector's noise and the technician draw from it
	s.dig = d.sum()
	return s, nil
}

func (s *sweep) describe() string {
	return fmt.Sprintf("%d links swept per interval, %d intervals of %d new faults per round, repairs due %d intervals after the ticket",
		s.sz.medium.NumLinks(), len(s.intervals), s.sz.sweepFaults, s.sz.sweepService)
}

func (s *sweep) digest() string { return s.dig }

// loop is one round's live deployment.
type loop struct {
	topo      *topology.Topology
	state     *faults.State
	eng       *core.Engine
	collector *telemetry.Collector
	srv       *snmplite.Server
	cli       *snmplite.Client
	det, ref  *detector.Detector
	cp        *controlPlane
	queue     *tickets.Queue
	techn     *tickets.Technician
	udpSrv    wireCount
	udpCli    wireCount

	// per-interval tracing state read by the source wrapper
	tr       *tracer
	pollSpan int
	req      int64
	gets     int

	pending []repair
	// disabled counts links the controller's replies took down;
	// activated the activations it acknowledged.
	disabled, activated int
	ops                 []engineOp
	got                 []opResult
	ids                 []int
}

// repair is a ticket waiting for its technician.
type repair struct {
	tk   *tickets.Ticket
	done time.Duration
}

func (s *sweep) setup(tr *tracer) (*loop, error) {
	lp := &loop{tr: tr}
	topo, err := topology.NewClos(s.sz.medium)
	if err != nil {
		return nil, err
	}
	lp.topo = topo
	lp.state = faults.NewState(topo, tech())
	netw, err := core.NewNetwork(topo, capacity)
	if err != nil {
		return nil, err
	}
	lp.eng = core.NewEngine(netw, core.EngineConfig{})
	lp.collector = telemetry.NewCollector(lp.state, nil, netw.DisabledFunc(), telemetry.Config{Seed: s.seed})
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen udp: %w", err)
	}
	lp.srv, err = snmplite.NewServerConn(countingPacketConn{PacketConn: pc, w: &lp.udpSrv},
		snmplite.CollectorProvider(lp.collector, topo.NumLinks()))
	if err != nil {
		_ = pc.Close() // the server error is the one reported
		return nil, fmt.Errorf("snmplite server: %w", err)
	}
	lp.cli, err = snmplite.DialConfig(lp.srv.Addr().String(), snmplite.ClientConfig{Timeout: time.Second, Dial: lp.udpCli.dial})
	if err != nil {
		lp.close()
		return nil, fmt.Errorf("snmplite client: %w", err)
	}
	links := make([]topology.LinkID, topo.NumLinks())
	for i := range links {
		links[i] = topology.LinkID(i)
	}
	remote := detector.SNMPSourceClient(lp.cli)
	src := detector.SourceFunc(func(l topology.LinkID) (detector.Reading, error) {
		lp.gets++
		id := lp.tr.begin("snmplite.get", lp.pollSpan, lp.req)
		rd, err := remote.Read(l)
		lp.tr.end(id)
		return rd, err
	})
	if lp.det, err = detector.New(src, links, detector.Config{}); err != nil {
		lp.close()
		return nil, err
	}
	if lp.ref, err = detector.New(detector.CollectorSource(lp.collector), links, detector.Config{}); err != nil {
		lp.close()
		return nil, err
	}
	if lp.cp, err = startControlPlane(lp.eng, 1); err != nil {
		lp.close()
		return nil, err
	}
	service := time.Duration(s.sz.sweepService) * telemetry.DefaultInterval
	lp.queue = tickets.NewQueue(tickets.QueueConfig{ServiceTime: service, Quiet: true})
	lp.techn = tickets.NewTechnician(0.7, rngutil.New(s.seed).Split("technician"))
	return lp, nil
}

func (lp *loop) close() {
	if lp.cp != nil {
		lp.cp.close()
	}
	if lp.cli != nil {
		_ = lp.cli.Close() // teardown; nothing left to report to
	}
	_ = lp.srv.Close() // teardown; nothing left to report to
}

func (s *sweep) round(i int, tr *tracer) round {
	var r round
	t0 := time.Now()
	lp, err := s.setup(tr)
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	defer lp.close()
	r.setup = time.Since(t0)

	transcript := newDigester("transcript")
	links := lp.topo.NumLinks()
	for k, fs := range s.intervals {
		now := time.Duration(k) * telemetry.DefaultInterval
		lp.req = int64(k)
		root := tr.begin("loop.interval", -1, lp.req)
		start := time.Now()

		id := tr.begin("faults.inject", root, lp.req)
		for _, f := range fs {
			lp.state.Apply(f)
		}
		tr.end(id)
		id = tr.begin("telemetry.poll", root, lp.req)
		lp.collector.Poll(now)
		tr.end(id)

		lp.pollSpan = tr.begin("detector.poll", root, lp.req)
		m0 := mallocs()
		sweepStart := time.Now()
		events, err := lp.det.Poll()
		r.work += time.Since(sweepStart)
		r.mallocs += mallocs() - m0
		tr.end(lp.pollSpan)
		r.attempted += links
		if err != nil {
			r.fail("interval %d: sweep: %v", k, err)
		} else {
			r.ops += links
		}
		r.add("events", float64(len(events)))

		for _, ev := range events {
			if ev.Corrupting {
				lp.send(&r, root, engineOp{kind: opReport, link: ev.Link, rate: ev.Rate}, now)
			}
		}
		lp.repairDue(&r, root, now)
		tr.end(root)
		r.lat = append(r.lat, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil {
			r.lat[len(r.lat)-1] = inf
		}

		// Outside the timed interval: the same collector read in process
		// must raise the same events.
		want, err := lp.ref.Poll()
		r.check(err == nil && slices.Equal(events, want),
			"interval %d: detector over snmplite raised %v, over the collector %v (err %v)", k, events, want, err)
		for _, ev := range events {
			transcript.u64(uint64(ev.Link))
			transcript.f64(ev.Rate)
		}
	}
	r.add("ctl_bytes", float64(lp.cp.cli.bytesOut.Load()+lp.cp.cli.bytesIn.Load()))
	r.add("ctl_writes", float64(lp.cp.cli.writes.Load()))
	opened := len(lp.queue.History()) + lp.queue.OpenCount()
	r.check(opened == lp.disabled, "opened %d tickets for %d disabled links", opened, lp.disabled)
	r.attempted++
	if st, err := lp.cp.agents[0].Status(); err != nil {
		r.fail("status: %v", err)
	} else {
		r.check(st.Disabled == lp.disabled-lp.activated, "controller has %d links down, replies say %d disabled - %d activated",
			st.Disabled, lp.disabled, lp.activated)
	}
	// Every datagram beyond one per Get is a retransmit.
	if n := int(lp.udpCli.writes.Load()) - lp.gets; n > 0 {
		r.attempted += n
		for j := 0; j < n; j++ {
			r.fail("snmplite retransmit")
		}
		r.add("retransmits", float64(n))
	}
	countRetries(&r, lp.cp)
	lp.cp.countServer(&r, len(lp.ops)+1)

	for _, g := range lp.got {
		transcript.u64(uint64(len(g.newly)))
		transcript.u64(uint64(len(g.reason)))
	}
	if i == 0 && s.transcript == "" {
		s.transcript = transcript.sum()
	}
	r.check(transcript.sum() == s.transcript, "round transcript %s differs from round 0's %s", transcript.sum(), s.transcript)

	r.add("links", float64(r.ops))
	r.add("intervals", float64(len(s.intervals)))
	r.add("udp_datagrams", float64(lp.udpCli.writes.Load()+lp.udpSrv.writes.Load()))
	r.add("udp_bytes", float64(lp.udpCli.bytesOut.Load()+lp.udpCli.bytesIn.Load()))
	r.add("tickets_opened", float64(opened))
	for _, op := range lp.ops {
		if op.kind == opActivate {
			r.add("activations", 1)
		} else {
			r.add("reports", 1)
		}
	}
	if tr != nil && len(lp.ids) == len(lp.ops) {
		if err := attachReplays(tr, s.sz.medium, nil, lp.ops, lp.ids); err != nil {
			r.fail("replay: %v", err)
		}
	}
	if i == 0 {
		s.lastOps, s.lastGot = lp.ops, lp.got
	}
	return r
}

// send issues op to the controller and tickets every link it disables.
func (lp *loop) send(r *round, root int, op engineOp, now time.Duration) {
	wire, _ := spanName(op.kind)
	m0 := mallocs()
	id := lp.tr.begin(wire, root, lp.req)
	res, err := send(lp.cp.agents[0], op)
	lp.tr.end(id)
	r.add("ctl_mallocs", float64(mallocs()-m0))
	r.attempted++
	if err != nil {
		r.fail("%s link %d: %v", wire, op.link, err)
		return
	}
	lp.ops = append(lp.ops, op)
	lp.got = append(lp.got, res)
	lp.ids = append(lp.ids, id)
	if op.kind == opActivate {
		lp.activated++
	}
	if op.kind == opReport && res.newlyDisabled() {
		lp.disabled++
		lp.ticket(root, op.link, now)
	}
	lp.disabled += len(res.newly)
	for _, l := range res.newly {
		lp.ticket(root, l, now)
	}
}

// ticket diagnoses a newly disabled link and opens its ticket.
func (lp *loop) ticket(root int, l topology.LinkID, now time.Duration) {
	id := lp.tr.begin("core.diagnose", root, lp.req)
	rec := faults.ActionUnknown
	if d, ok := core.Diagnose(lp.collector, lp.topo, tech(), l, core.DefaultDetectionThreshold, false); ok {
		rec = core.Recommend(d)
	}
	lp.tr.end(id)
	id = lp.tr.begin("tickets.open", root, lp.req)
	tk, done := lp.queue.Open(l, rec, now)
	lp.tr.end(id)
	lp.pending = append(lp.pending, repair{tk: tk, done: done})
}

// repairDue runs every repair whose technician is done by now: the fix,
// the ticket's resolution, and the activation.
func (lp *loop) repairDue(r *round, root int, now time.Duration) {
	var later []repair
	due := lp.pending
	lp.pending = nil
	for _, p := range due {
		if p.done > now {
			later = append(later, p)
			continue
		}
		l := p.tk.Link
		cause := faults.ConnectorContamination
		active := lp.state.ActiveFaults(l)
		if len(active) > 0 {
			cause = active[0].Cause
		}
		action := lp.techn.ChooseAction(p.tk, cause)
		fixed := true
		for _, f := range active {
			fixed = fixed && tickets.ActionFixesFault(action, f)
		}
		lp.state.RepairLink(l)
		id := lp.tr.begin("tickets.resolve", root, lp.req)
		err := lp.queue.Resolve(p.tk, now, action, fixed)
		lp.tr.end(id)
		r.check(err == nil, "resolve ticket for link %d: %v", l, err)
		lp.send(r, root, engineOp{kind: opActivate, link: l}, now)
	}
	lp.pending = append(later, lp.pending...)
}

func (s *sweep) layers(out map[string]metric, plain, traced []round, spans []span) error {
	self := selfTimes(spans)
	med := func(name string, scale float64, useSelf bool) {
		durs, selfs := spanStats(spans, self, name)
		xs := durs
		if useSelf {
			xs = selfs
		}
		if len(xs) > 0 {
			setLayer(out, layerName[name], median(xs)/scale)
		}
	}
	med("snmplite.get", 1e3, false)
	med("detector.poll", 1e6, true)
	med("telemetry.poll", 1e6, false)
	med("core.diagnose", 1e3, false)
	med("tickets.open", 1e3, false)
	med("tickets.resolve", 1e3, false)

	var links, datagrams, bytes, events, intervals, retrans float64
	var allocs uint64
	var opened []float64
	for _, r := range append(append([]round(nil), plain...), traced...) {
		retrans += r.stats["retransmits"]
	}
	for _, r := range plain {
		links += r.stats["links"]
		datagrams += r.stats["udp_datagrams"]
		bytes += r.stats["udp_bytes"]
		events += r.stats["events"]
		intervals += r.stats["intervals"]
		allocs += r.mallocs
		opened = append(opened, r.stats["tickets_opened"])
	}
	if links > 0 {
		setLayer(out, "snmplite.datagrams_per_link", datagrams/links)
		setLayer(out, "snmplite.bytes_per_link", bytes/links)
		setLayer(out, "snmplite.allocs_per_link", float64(allocs)/links)
	}
	setLayer(out, "snmplite.retransmits", retrans)
	if intervals > 0 {
		setLayer(out, "detector.events_per_interval", events/intervals)
	}
	setLayer(out, "tickets.opened", median(opened))
	if err := coreLayers(out, s.sz.medium, nil, s.lastOps, s.lastGot); err != nil {
		return err
	}
	return wireLayers(out, plain, spans, s.lastOps, s.lastGot)
}

// layerName maps a span to the per-layer metric of its median.
var layerName = map[string]string{
	"snmplite.get":    "snmplite.get_us",
	"detector.poll":   "detector.sweep_self_ms",
	"telemetry.poll":  "telemetry.poll_ms",
	"core.diagnose":   "core.diagnose_us",
	"tickets.open":    "tickets.open_us",
	"tickets.resolve": "tickets.resolve_us",
}
