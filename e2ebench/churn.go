package main

import (
	"fmt"
	"slices"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// churn is repair_churn: one agent, closed loop, activates the oldest
// disabled link and then reports the links of one new fault, over a
// network preloaded to capacity pressure. Every activation re-runs the
// optimizer over the remaining active corrupting links.
//
// How long the optimizer takes depends on where the preload's faults fell,
// by some ±12% from one preload to the next, so one seed generates
// several independent input sets and rounds cycle through them.
type churn struct {
	sz   size
	sets []*churnSet
	dig  string
}

// churnSet is one preload and the op sequence every round over it sends.
type churnSet struct {
	preload     []engineOp
	preloadWant []opResult
	ops         []engineOp
	want        []opResult
	final       status
	opt         []core.OptimizeStats
	activations int
}

func prepareChurn(seed uint64, sz size) (instance, error) {
	c := &churn{sz: sz}
	d := newDigester("repair_churn")
	for k := 0; k < sz.churnSets; k++ {
		set, err := prepareChurnSet(rngutil.New(seed).SplitIndex("repair_churn", k), sz, d)
		if err != nil {
			return nil, fmt.Errorf("input set %d: %w", k, err)
		}
		c.sets = append(c.sets, set)
	}
	c.dig = d.sum()
	return c, nil
}

func prepareChurnSet(rng *rngutil.Source, sz size, d *digester) (*churnSet, error) {
	topo, err := topology.NewClos(sz.medium)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(topo, tech(), faults.InjectorConfig{}, rng)
	if err != nil {
		return nil, err
	}
	eng, err := freshEngine(sz.medium)
	if err != nil {
		return nil, err
	}
	st := faults.NewState(topo, tech())
	c := &churnSet{}
	var fifo []topology.LinkID // disabled links, oldest first
	reportFault := func(dst *[]engineOp, res *[]opResult) {
		f := inj.NewFault(0)
		st.Apply(f)
		for _, l := range f.Links() {
			op := engineOp{kind: opReport, link: l, rate: st.WorstRate(l)}
			r := apply(eng, op)
			if r.newlyDisabled() {
				fifo = append(fifo, l)
			}
			*dst = append(*dst, op)
			*res = append(*res, r)
			d.u64(uint64(l))
			d.f64(op.rate)
		}
	}
	// Faults land until the optimizer's input, the active corrupting
	// links, reaches the same size for every seed.
	for eng.Network().NumActiveCorrupting(eng.Threshold()) < sz.churnActive {
		reportFault(&c.preload, &c.preloadWant)
	}
	// The activation order follows the engine's own decisions, so the
	// generator runs the reference engine alongside: the op sequence it
	// writes is what every round sends and every reply must match.
	for i := 0; i < sz.churnActivations; i++ {
		if len(fifo) == 0 {
			return nil, fmt.Errorf("no disabled link left to activate at step %d", i)
		}
		l := fifo[0]
		fifo = fifo[1:]
		st.RepairLink(l)
		op := engineOp{kind: opActivate, link: l}
		r := apply(eng, op)
		fifo = append(fifo, r.newly...)
		c.ops = append(c.ops, op)
		c.want = append(c.want, r)
		c.activations++
		d.u64(uint64(l) | 1<<40)
		reportFault(&c.ops, &c.want)
	}
	c.final = statusOf(eng)
	if c.final.worst < capacity {
		return nil, fmt.Errorf("reference engine ended at worst ToR fraction %v < c=%v", c.final.worst, capacity)
	}
	if err := c.secondReplay(sz.medium); err != nil {
		return nil, err
	}
	return c, nil
}

// secondReplay re-derives every activation through Network.Enable,
// SetCorruption and Engine.Reoptimize, which also yields the optimizer's
// statistics; both replays must agree.
func (c *churnSet) secondReplay(cfg topology.ClosConfig) error {
	eng, err := freshEngine(cfg)
	if err != nil {
		return err
	}
	replayEngine(eng, c.preload, nil)
	net := eng.Network()
	for i, op := range c.ops {
		if op.kind == opReport {
			apply(eng, op)
			continue
		}
		net.Enable(op.link)
		net.SetCorruption(op.link, 0)
		newly, stats := eng.Reoptimize()
		if !slices.Equal(newly, c.want[i].newly) {
			return fmt.Errorf("replays disagree at op %d (activate %d): LinkRepaired %v, Reoptimize %v",
				i, op.link, c.want[i].newly, newly)
		}
		c.opt = append(c.opt, stats)
	}
	return nil
}

func (c *churn) describe() string {
	s := c.sets[0]
	return fmt.Sprintf("%d input sets; set 0: preload %d reports, %d activations + %d reports per round, reference ends with %d disabled, %d active corrupting, worst ToR %.4f",
		len(c.sets), len(s.preload), s.activations, len(s.ops)-s.activations, s.final.disabled, s.final.activeCorrupting, s.final.worst)
}

func (c *churn) digest() string { return c.dig }

func (c *churn) round(i int, tr *tracer) round {
	set := c.sets[i%len(c.sets)]
	var r round
	t0 := time.Now()
	eng, err := freshEngine(c.sz.medium)
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	pre := replayEngine(eng, set.preload, nil)
	cp, err := startControlPlane(eng, 1)
	if err != nil {
		r.fail("set-up: %v", err)
		return r
	}
	defer cp.close()
	r.setup = time.Since(t0)
	r.check(slices.EqualFunc(pre, set.preloadWant, opResult.equal), "preload decisions differ from the reference")

	cli := cp.agents[0]
	got := make([]opResult, len(set.ops))
	errs := make([]error, len(set.ops))
	lat := make([]float64, len(set.ops))
	ids := make([]int, len(set.ops))
	m0 := mallocs()
	start := time.Now()
	for i, op := range set.ops {
		wire, _ := spanName(op.kind)
		ids[i] = tr.begin(wire, -1, int64(i))
		t := time.Now()
		got[i], errs[i] = send(cli, op)
		lat[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		tr.end(ids[i])
	}
	r.work = time.Since(start)
	r.mallocs = mallocs() - m0
	r.add("ctl_mallocs", float64(r.mallocs))
	r.add("ctl_bytes", float64(cp.cli.bytesOut.Load()+cp.cli.bytesIn.Load()))
	r.add("ctl_writes", float64(cp.cli.writes.Load()))

	// The controller's disabled set, as the agent saw it change.
	down := topology.NewLinkSet(eng.Network().Topology().NumLinks())
	for i, op := range set.preload {
		if pre[i].newlyDisabled() {
			down.Add(op.link)
		}
	}
	for i, op := range set.ops {
		r.attempted++
		if op.kind == opActivate {
			r.add("activations", 1)
			if errs[i] != nil {
				r.lat = append(r.lat, inf)
			} else {
				r.lat = append(r.lat, lat[i])
				r.ops++
			}
		} else if errs[i] == nil {
			r.add("reports", 1)
		}
		if errs[i] != nil {
			r.fail("op %d (%v link %d): %v", i, op.kind, op.link, errs[i])
			continue
		}
		r.check(got[i].equal(set.want[i]), "op %d (link %d): reply %v, replay says %v", i, op.link, got[i], set.want[i])
		switch {
		case op.kind == opActivate:
			down.Remove(op.link)
			for _, l := range got[i].newly {
				down.Add(l)
			}
		case got[i].newlyDisabled():
			down.Add(op.link)
		}
	}
	c.checkStatus(&r, cp, set.final, down)
	countRetries(&r, cp)
	cp.countServer(&r, int(r.stats["reports"]+r.stats["activations"])+1)
	if tr != nil {
		if err := attachReplays(tr, c.sz.medium, set.preload, set.ops, ids); err != nil {
			r.fail("replay: %v", err)
		}
	}
	return r
}

// checkStatus compares the controller's final Status with the reference,
// checks the capacity constraint, and recomputes the worst ToR fraction
// on a fresh network holding the disabled set the agent observed.
func (c *churn) checkStatus(r *round, cp *controlPlane, want status, down *topology.LinkSet) {
	r.attempted++
	st, err := cp.agents[0].Status()
	if err != nil {
		r.fail("status: %v", err)
		return
	}
	ws := wireStatus(st)
	r.check(ws == want, "final status %+v, replay says %+v", ws, want)
	r.check(ws.worst >= capacity, "worst ToR fraction %v below c=%v", ws.worst, capacity)
	topo, err := topology.NewClos(c.sz.medium)
	if err != nil {
		r.fail("recompute: %v", err)
		return
	}
	net, err := core.NewNetwork(topo, capacity)
	if err != nil {
		r.fail("recompute: %v", err)
		return
	}
	n := 0
	down.Each(func(l topology.LinkID) {
		net.Disable(l)
		n++
	})
	r.check(n == ws.disabled, "agent saw %d links disabled, controller reports %d", n, ws.disabled)
	r.check(net.WorstToRFraction() == ws.worst, "fresh network recomputes worst ToR fraction %v, controller reports %v",
		net.WorstToRFraction(), ws.worst)
}

func (c *churn) layers(out map[string]metric, plain, traced []round, spans []span) error {
	set := c.sets[0]
	if err := coreLayers(out, c.sz.medium, set.preload, set.ops, set.want); err != nil {
		return err
	}
	if err := wireLayers(out, plain, spans, set.ops, set.want); err != nil {
		return err
	}
	var runs []core.OptimizeStats
	for _, s := range c.sets {
		runs = append(runs, s.opt...)
	}
	optLayers(out, runs)
	return nil
}

// optLayers fills the optimizer statistics: means per optimizer run, and
// the largest segment seen.
func optLayers(out map[string]metric, runs []core.OptimizeStats) {
	if len(runs) == 0 {
		return
	}
	var active, segs, checks, hits float64
	var largest, greedy, budget int
	for _, s := range runs {
		active += float64(s.Active)
		segs += float64(s.Segments)
		checks += float64(s.FeasibilityChecks)
		hits += float64(s.RejectCacheHits)
		largest = max(largest, s.LargestSegment)
		greedy += s.GreedyFallbacks
		budget += s.BudgetExhausted
	}
	n := float64(len(runs))
	setLayer(out, "core.opt.active", active/n)
	setLayer(out, "core.opt.segments", segs/n)
	setLayer(out, "core.opt.largest_segment", float64(largest))
	setLayer(out, "core.opt.feasibility_checks", checks/n)
	setLayer(out, "core.opt.reject_cache_hits", hits/n)
	setLayer(out, "core.opt.greedy_fallbacks", float64(greedy)/n)
	setLayer(out, "core.opt.budget_exhausted", float64(budget)/n)
}
