package main

import (
	"time"

	"corropt/internal/core"
	"corropt/internal/topology"
)

// freshEngine builds a topology and a fully healthy engine over it.
func freshEngine(cfg topology.ClosConfig) (*core.Engine, error) {
	topo, err := topology.NewClos(cfg)
	if err != nil {
		return nil, err
	}
	net, err := core.NewNetwork(topo, capacity)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(net, core.EngineConfig{}), nil
}

// countRetries charges every client re-dial as a failed attempt.
func countRetries(r *round, cp *controlPlane) {
	if n := cp.retries(); n > 0 {
		r.attempted += n
		for i := 0; i < n; i++ {
			r.fail("client retry after a transport failure")
		}
	}
}

// attachReplays replays preload then ops on a fresh engine and attaches
// each op's engine time to its wire span ids[i] as a replayed child.
func attachReplays(tr *tracer, cfg topology.ClosConfig, preload, ops []engineOp, ids []int) error {
	eng, err := freshEngine(cfg)
	if err != nil {
		return err
	}
	replayEngine(eng, preload, nil)
	took := make([]time.Duration, len(ops))
	replayEngine(eng, ops, took)
	for i, op := range ops {
		_, name := spanName(op.kind)
		tr.replayed(name, ids[i], took[i])
	}
	return nil
}

// wireLayers fills the ctlplane metrics shared by the workloads that drive
// the controller over TCP: self times from the traced spans; bytes, socket
// writes (the agent's per request plus the controller's per request
// served) and allocations per request from the untraced rounds; and the
// in-memory codec cost of the run's own envelopes. It runs after
// coreLayers, whose allocation counts it uses.
func wireLayers(out map[string]metric, plain []round, spans []span, ops []engineOp, want []opResult) error {
	self := selfTimes(spans)
	if _, sf := spanStats(spans, self, "ctlplane.report"); len(sf) > 0 {
		setLayer(out, "ctlplane.report_self_us", median(sf)/1e3)
	}
	if _, sf := spanStats(spans, self, "ctlplane.activate"); len(sf) > 0 {
		setLayer(out, "ctlplane.activate_self_us", median(sf)/1e3)
	}
	// Allocations are counted process-wide; the replayed engine's share,
	// which coreLayers measured, is taken out.
	var reqs, bytes, writes, srvWrites, frames, allocs float64
	for _, r := range plain {
		reqs += r.stats["reports"] + r.stats["activations"]
		bytes += r.stats["ctl_bytes"]
		writes += r.stats["ctl_writes"]
		srvWrites += r.stats["ctl_srv_writes"]
		frames += r.stats["ctl_srv_frames"]
		allocs += r.stats["ctl_mallocs"] -
			r.stats["reports"]*out["core.report_allocs"].Value -
			r.stats["activations"]*out["core.repair_allocs"].Value
	}
	if reqs > 0 {
		setLayer(out, "ctlplane.bytes_per_report", bytes/reqs)
		setLayer(out, "ctlplane.conn_writes_per_report", writes/reqs+srvWrites/frames)
		setLayer(out, "ctlplane.allocs_per_report", allocs/reqs)
	}
	enc, dec, err := codecCost(envelopes(ops, want))
	if err != nil {
		return err
	}
	setLayer(out, "ctlplane.encode_ns", enc)
	setLayer(out, "ctlplane.decode_ns", dec)
	return nil
}

// coreLayers replays the run's ops in process and fills the core metrics:
// time and allocations per ReportCorruption and per LinkRepaired, the
// below-threshold share, the disable ratio, and the links newly disabled
// per activation. A sequence of reports alone is timed as one batch; a
// mixed one op by op.
func coreLayers(out map[string]metric, cfg topology.ClosConfig, preload, ops []engineOp, want []opResult) error {
	var reports, activations, below, above, disabled, newly int
	for i, op := range ops {
		if op.kind == opActivate {
			activations++
			newly += len(want[i].newly)
			continue
		}
		reports++
		if op.rate < core.DefaultDetectionThreshold {
			below++
			continue
		}
		above++
		if want[i].newlyDisabled() {
			disabled++
		}
	}
	if reports > 0 {
		setLayer(out, "core.below_threshold_share", float64(below)/float64(reports))
	}
	if above > 0 {
		setLayer(out, "core.disable_ratio", float64(disabled)/float64(above))
	}
	if activations > 0 {
		setLayer(out, "core.newly_disabled_per_activate", float64(newly)/float64(activations))
	}
	// Three timing passes, then one counting pass: reading the allocation
	// counter stops the world, which would disturb the timings.
	var ns [2][]float64
	var allocs [2]float64
	for pass := 0; pass < 4; pass++ {
		eng, err := freshEngine(cfg)
		if err != nil {
			return err
		}
		replayEngine(eng, preload, nil)
		var took [2]time.Duration
		var count [2]uint64
		switch {
		case pass == 3:
			for _, op := range ops {
				m0 := mallocs()
				apply(eng, op)
				count[op.kind] += mallocs() - m0
			}
		case activations == 0:
			t0 := time.Now()
			for _, op := range ops {
				eng.ReportCorruption(op.link, op.rate)
			}
			took[opReport] = time.Since(t0)
		default:
			for _, op := range ops {
				t0 := time.Now()
				apply(eng, op)
				took[op.kind] += time.Since(t0)
			}
		}
		for k, n := range [2]int{reports, activations} {
			if n == 0 {
				continue
			}
			if pass == 3 {
				allocs[k] = float64(count[k]) / float64(n)
			} else {
				ns[k] = append(ns[k], float64(took[k].Nanoseconds())/float64(n))
			}
		}
	}
	if reports > 0 {
		setLayer(out, "core.report_ns", median(ns[opReport]))
		setLayer(out, "core.report_allocs", allocs[opReport])
	}
	if activations > 0 {
		setLayer(out, "core.repair_ms", median(ns[opActivate])/1e6)
		setLayer(out, "core.repair_allocs", allocs[opActivate])
	}
	return nil
}
