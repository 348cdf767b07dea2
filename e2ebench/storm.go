package main

import (
	"fmt"
	"sync"
	"time"

	"corropt/internal/core"
	"corropt/internal/ctlplane"
	"corropt/internal/faults"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// storm is report_storm: two agents on two TCP connections replay a seeded
// fault stream's reports as fast as the controller answers (closed loop).
// It exercises ctlplane framing and the core fast checker, with no
// optimizer and no polling.
type storm struct {
	sz      size
	streams [2][]engineOp
	want    [2][]opResult
	final   status
	dig     string
}

func prepareStorm(seed uint64, sz size) (instance, error) {
	topo, err := topology.NewClos(sz.medium)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(topo, tech(), faults.InjectorConfig{}, rngutil.New(seed).Split("report_storm"))
	if err != nil {
		return nil, err
	}
	// Each link is reported at its ground-truth worst rate once its fault
	// lands; breakout (shared-component) faults report several links.
	// Agents split by the pod of the link's lower switch: a link's
	// downstream cone never leaves its pod, so decisions do not depend on
	// how the two streams interleave.
	st := faults.NewState(topo, tech())
	s := &storm{sz: sz}
	d := newDigester("report_storm")
	half := sz.medium.Pods / 2
	for n := 0; n < sz.stormReports; {
		f := inj.NewFault(0)
		st.Apply(f)
		for _, l := range f.Links() {
			op := engineOp{kind: opReport, link: l, rate: st.WorstRate(l)}
			a := 0
			if topo.Switch(topo.Link(l).Lower).Pod >= half {
				a = 1
			}
			s.streams[a] = append(s.streams[a], op)
			d.u64(uint64(a))
			d.u64(uint64(l))
			d.f64(op.rate)
			n++
		}
	}
	s.dig = d.sum()

	// The serial in-process replay every wire decision must match.
	eng, err := freshEngine(sz.medium)
	if err != nil {
		return nil, err
	}
	for a := range s.streams {
		s.want[a] = replayEngine(eng, s.streams[a], nil)
	}
	s.final = statusOf(eng)
	return s, nil
}

func (s *storm) describe() string {
	below := 0
	for _, ops := range s.streams {
		for _, op := range ops {
			if op.rate < core.DefaultDetectionThreshold {
				below++
			}
		}
	}
	n := len(s.streams[0]) + len(s.streams[1])
	return fmt.Sprintf("%d reports per round (%d + %d per agent), %d below threshold, final %d disabled",
		n, len(s.streams[0]), len(s.streams[1]), below, s.final.disabled)
}

func (s *storm) digest() string { return s.dig }

// agentRun is what one agent saw in one round.
type agentRun struct {
	got  []opResult
	errs []error
	lat  []float64
	ids  []int
	tr   *tracer
}

// drive sends ops from cli in a closed loop.
func drive(cli *ctlplane.Client, ops []engineOp, tr *tracer, reqBase int64) *agentRun {
	ar := &agentRun{
		got: make([]opResult, len(ops)), errs: make([]error, len(ops)),
		lat: make([]float64, len(ops)), ids: make([]int, len(ops)), tr: tr,
	}
	for j, op := range ops {
		wire, _ := spanName(op.kind)
		id := tr.begin(wire, -1, reqBase+int64(j))
		t0 := time.Now()
		ar.got[j], ar.errs[j] = send(cli, op)
		ar.lat[j] = float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(id)
		ar.ids[j] = id
		if ar.errs[j] != nil {
			ar.lat[j] = inf
		}
	}
	return ar
}

func (s *storm) round(_ int, tr *tracer) round {
	var r round
	t0 := time.Now()
	eng, err := freshEngine(s.sz.medium)
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	cp, err := startControlPlane(eng, 2)
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	defer cp.close()
	r.setup = time.Since(t0)

	var runs [2]*agentRun
	var wg sync.WaitGroup
	m0 := mallocs()
	start := time.Now()
	for a := range runs {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			runs[a] = drive(cp.agents[a], s.streams[a], tr.child(), int64(a)<<32)
		}(a)
	}
	wg.Wait()
	r.work = time.Since(start)
	r.mallocs = mallocs() - m0

	var ids []int
	for a, ar := range runs {
		off := tr.absorb(ar.tr)
		for j := range ar.got {
			r.attempted++
			r.lat = append(r.lat, ar.lat[j])
			if ar.errs[j] != nil {
				r.fail("agent %d report %d: %v", a, j, ar.errs[j])
				continue
			}
			r.ops++
			r.check(ar.got[j].equal(s.want[a][j]), "agent %d report %d (link %d): decision %v, replay says %v",
				a, j, s.streams[a][j].link, ar.got[j], s.want[a][j])
			ids = append(ids, ar.ids[j]+off)
		}
	}
	r.add("reports", float64(r.ops))
	r.add("ctl_mallocs", float64(r.mallocs))
	r.add("ctl_bytes", float64(cp.cli.bytesOut.Load()+cp.cli.bytesIn.Load()))
	r.add("ctl_writes", float64(cp.cli.writes.Load()))
	st, err := cp.agents[0].Status()
	r.attempted++
	if err != nil {
		r.fail("status: %v", err)
	} else {
		r.check(wireStatus(st) == s.final, "final status %+v, replay says %+v", wireStatus(st), s.final)
	}
	countRetries(&r, cp)
	cp.countServer(&r, r.ops+1)
	if tr != nil && len(ids) == len(s.streams[0])+len(s.streams[1]) {
		if err := attachReplays(tr, s.sz.medium, nil, append(append([]engineOp(nil), s.streams[0]...), s.streams[1]...), ids); err != nil {
			r.fail("replay: %v", err)
		}
	}
	return r
}

func (s *storm) layers(out map[string]metric, plain, traced []round, spans []span) error {
	ops := append(append([]engineOp(nil), s.streams[0]...), s.streams[1]...)
	want := append(append([]opResult(nil), s.want[0]...), s.want[1]...)
	if err := coreLayers(out, s.sz.medium, nil, ops, want); err != nil {
		return err
	}
	return wireLayers(out, plain, spans, ops, want)
}
