package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"corropt/internal/optics"
	"corropt/internal/topology"
)

// workload is one set of inputs the benchmark runs, with the names the
// human-readable table gives its generic end-to-end metrics.
type workload struct {
	name string
	// op names the unit operation ops_per_s and op_*_ms measure.
	op string
	// tailPct is the latency percentile op_tail_ms reports. namedPct is
	// the tail the workload's own latency is usually quoted at; the
	// stderr table prints both. Each keeps at least ten samples beyond
	// it in a full-size run.
	tailPct, namedPct float64
	// rateName/rateUnit and latName/latUnit (us or ms) label the generic
	// metrics with the workload's own names in the stderr table.
	rateName, rateUnit, latName, latUnit string
	prepare                              func(seed uint64, sz size) (instance, error)
}

// instance is a workload with its inputs generated from one seed.
type instance interface {
	// describe summarizes the generated inputs in one line.
	describe() string
	// digest fingerprints the generated inputs, so two runs can prove
	// they measured the same work.
	digest() string
	// round sets up a fresh controller, runs the fixed unit of work once,
	// and checks it. tr is nil in untraced rounds.
	round(i int, tr *tracer) round
	// layers fills the per-layer metrics from the untraced and traced
	// rounds and the traced rounds' spans.
	layers(out map[string]metric, plain, traced []round, spans []span) error
}

var workloads = []workload{
	{
		name: "report_storm", op: "reports", tailPct: 90, namedPct: 99,
		rateName: "report_rps", rateUnit: "reports/s",
		latName: "report", latUnit: "us",
		prepare: prepareStorm,
	},
	{
		name: "repair_churn", op: "activations", tailPct: 75, namedPct: 95,
		rateName: "activate_per_s", rateUnit: "activations/s",
		latName: "activate", latUnit: "ms",
		prepare: prepareChurn,
	},
	{
		name: "monitor_sweep", op: "links polled", tailPct: 75, namedPct: 75,
		rateName: "links_polled_per_s", rateUnit: "links/s",
		latName: "interval", latUnit: "ms",
		prepare: prepareSweep,
	},
	{
		name: "fleet_replay", op: "events", tailPct: 90, namedPct: 90,
		rateName: "fleet_events_per_s", rateUnit: "events/s",
		latName: "batch", latUnit: "ms",
		prepare: prepareFleet,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, on every workload; a
// layer the workload does not drive reports 0.
var perLayer = []metricSpec{
	{"ctlplane.report_self_us", "us"},
	{"ctlplane.activate_self_us", "us"},
	{"ctlplane.bytes_per_report", "B"},
	{"ctlplane.conn_writes_per_report", "count"},
	{"ctlplane.encode_ns", "ns"},
	{"ctlplane.decode_ns", "ns"},
	{"ctlplane.allocs_per_report", "count"},
	{"core.report_ns", "ns"},
	{"core.report_allocs", "count"},
	{"core.below_threshold_share", "ratio"},
	{"core.disable_ratio", "ratio"},
	{"core.repair_ms", "ms"},
	{"core.repair_allocs", "count"},
	{"core.newly_disabled_per_activate", "count"},
	{"core.diagnose_us", "us"},
	{"core.opt.active", "count"},
	{"core.opt.segments", "count"},
	{"core.opt.largest_segment", "count"},
	{"core.opt.feasibility_checks", "count"},
	{"core.opt.reject_cache_hits", "count"},
	{"core.opt.greedy_fallbacks", "count"},
	{"core.opt.budget_exhausted", "count"},
	{"snmplite.get_us", "us"},
	{"snmplite.datagrams_per_link", "count"},
	{"snmplite.bytes_per_link", "B"},
	{"snmplite.retransmits", "count"},
	{"snmplite.allocs_per_link", "count"},
	{"detector.sweep_self_ms", "ms"},
	{"detector.events_per_interval", "count"},
	{"telemetry.poll_ms", "ms"},
	{"tickets.open_us", "us"},
	{"tickets.resolve_us", "us"},
	{"tickets.opened", "count"},
	{"fleet.ingest_ns_per_event", "ns"},
	{"fleet.flush_ms_per_batch", "ms"},
	{"fleet.allocs_per_event", "count"},
	{"fleet.blocked_ratio", "ratio"},
	{"fleet.reopt_disabled_per_repair", "count"},
	{"trace_overhead.ops_per_s", "1/s"},
	{"trace_overhead.op_p50_ms", "ms"},
	{"trace_overhead.op_tail_ms", "ms"},
}

// emptyLayers returns every per-layer metric at 0 with its unit.
func emptyLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = metric{0, s.unit}
	}
	return m
}

// setLayer records a per-layer metric under its declared unit.
func setLayer(out map[string]metric, name string, v float64) {
	m, ok := out[name]
	if !ok {
		panic("e2ebench: undeclared per-layer metric " + name)
	}
	m.Value = v
	out[name] = m
}

// size fixes the amount of work in one round of each workload.
type size struct {
	// medium is the paper's O(15K)-link medium DCN; large its O(35K) one.
	medium, large topology.ClosConfig
	// stormReports is the number of reports in one report_storm round.
	stormReports int
	// repair_churn generates churnSets input sets. Each set's preload
	// reports faults until churnActive links are active and corrupting;
	// churnActivations activate→report steps follow in each round.
	churnSets, churnActive, churnActivations int
	// sweepIntervals virtual intervals of sweepFaults new faults each make
	// one monitor_sweep round; repairs take sweepService virtual time.
	sweepIntervals, sweepFaults, sweepService int
	// fleetDCNs copies of the large DCN take fleetEvents events per
	// fleet_replay round, ingested and flushed fleetBatch at a time.
	fleetDCNs, fleetEvents, fleetBatch int
}

var sizeFull = size{
	medium: topology.ClosConfig{
		Pods: 45, ToRsPerPod: 40, AggsPerPod: 6,
		Spines: 96, SpineUplinksPerAgg: 16, BreakoutSize: 4,
	}, // 15,120 links
	large: topology.ClosConfig{
		Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
		Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
	}, // 34,560 links
	stormReports:     6000,
	churnSets:        8,
	churnActive:      1200,
	churnActivations: 25,
	sweepIntervals:   8,
	sweepFaults:      4,
	sweepService:     4,
	fleetDCNs:        30,
	fleetEvents:      400_000,
	fleetBatch:       20_000,
}

// sizeTiny runs every workload through its checks in well under a second.
var sizeTiny = size{
	medium: topology.ClosConfig{
		Pods: 4, ToRsPerPod: 8, AggsPerPod: 4,
		Spines: 16, SpineUplinksPerAgg: 8, BreakoutSize: 4,
	}, // 256 links
	large: topology.ClosConfig{
		Pods: 4, ToRsPerPod: 8, AggsPerPod: 4,
		Spines: 16, SpineUplinksPerAgg: 8, BreakoutSize: 4,
	},
	stormReports:     200,
	churnSets:        2,
	churnActive:      24,
	churnActivations: 6,
	sweepIntervals:   6,
	sweepFaults:      3,
	sweepService:     2,
	fleetDCNs:        3,
	fleetEvents:      3000,
	fleetBatch:       500,
}

// capacity is the per-ToR capacity constraint c every workload uses.
const capacity = 0.75

// tech is the 40G transceiver technology of the experiment suite.
func tech() optics.Technology {
	return optics.Technology{Name: "40G-LR4", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
}

// digester fingerprints generated inputs.
type digester struct{ h hash.Hash }

func newDigester(name string) *digester {
	d := &digester{h: sha256.New()}
	d.h.Write([]byte(name))
	return d
}

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
