package core

import (
	"fmt"
	"math"

	"corropt/internal/topology"
)

// DefaultDetectionThreshold is the corruption rate at which operators act:
// IEEE 802.3 demands 1e-8, but production systems alarm near 1e-6 (§2).
const DefaultDetectionThreshold = 1e-6

// LossyFloor is the IEEE 802.3 lossy threshold of §2: corruption rates
// below 1e-8 are indistinguishable from a healthy link (the standard's
// residual bit-error budget) and are treated as zero wherever ground truth
// is mirrored into detection-facing state. stats.DefaultBuckets' lowest
// bucket boundary is the same floor.
const LossyFloor = 1e-8

// ValidRate reports whether rate is a usable corruption rate: finite and
// non-negative. The ingresses that take rates from outside the process (the
// control plane and the fleet router) reject every other value.
func ValidRate(rate float64) bool { return rate >= 0 && rate <= math.MaxFloat64 }

// Decision records what the engine did with a corruption report.
type Decision struct {
	Link topology.LinkID
	// Disabled reports whether the link was taken down.
	Disabled bool
	// Reason explains a negative decision.
	Reason string
}

// Engine ties CorrOpt's pieces into the workflow of Figure 13: switches
// report corruption; the fast checker decides immediately whether the link
// can be disabled; when repaired links come back, the optimizer reconsiders
// every remaining active corrupting link.
type Engine struct {
	net       *Network
	fast      *FastChecker
	opt       *Optimizer
	threshold float64
}

// EngineConfig parameterizes an Engine.
type EngineConfig struct {
	// DetectionThreshold is the corruption rate that triggers mitigation;
	// default DefaultDetectionThreshold.
	DetectionThreshold float64
	// Penalty is the impact function; default LinearPenalty.
	Penalty PenaltyFunc
	// Optimizer tunes the second phase.
	Optimizer OptimizerConfig
}

// NewEngine returns an Engine over net.
func NewEngine(net *Network, cfg EngineConfig) *Engine {
	if cfg.DetectionThreshold == 0 {
		cfg.DetectionThreshold = DefaultDetectionThreshold
	}
	if cfg.Penalty == nil {
		cfg.Penalty = LinearPenalty
	}
	return &Engine{
		net:       net,
		fast:      NewFastChecker(net),
		opt:       NewOptimizer(net, cfg.Penalty, cfg.Optimizer),
		threshold: cfg.DetectionThreshold,
	}
}

// Network returns the engine's network state.
func (e *Engine) Network() *Network { return e.net }

// Threshold reports the detection threshold in use.
func (e *Engine) Threshold() float64 { return e.threshold }

// Verdict is the outcome of one corruption report: the allocation-free
// form of a Decision.
type Verdict uint8

const (
	// BelowThreshold: the rate was recorded but is under the detection
	// threshold, so the link is left alone.
	BelowThreshold Verdict = iota
	// AlreadyDisabled: the link was down before the report.
	AlreadyDisabled
	// NewlyDisabled: the fast checker took the link down.
	NewlyDisabled
	// Blocked: capacity constraints forbid disabling the link.
	Blocked
)

// Report handles a new corruption report for link l at the given
// worst-direction rate: it records the rate and, if the rate is at or above
// the detection threshold, runs the fast checker and disables the link when
// capacity allows. The whole decision is incremental — an Apply/Revert
// probe over l's downstream cone plus, on success, one Apply to commit —
// so a report costs microseconds even on the largest topologies, and the
// engine can absorb report storms (e.g. a breakout cable taking 8 links
// down at once) without re-sweeping the data center per link.
//
//lint:hotpath the per-report decision behind every ctlplane report and fleet corruption event
func (e *Engine) Report(l topology.LinkID, rate float64) Verdict {
	e.net.SetCorruption(l, rate)
	switch {
	case rate < e.threshold:
		return BelowThreshold
	case e.net.Disabled(l):
		return AlreadyDisabled
	case e.fast.DisableIfSafe(l):
		return NewlyDisabled
	default:
		return Blocked
	}
}

// ReportCorruption is Report rendered as a Decision, with a human-readable
// reason on every negative outcome.
func (e *Engine) ReportCorruption(l topology.LinkID, rate float64) Decision {
	d := Decision{Link: l}
	switch e.Report(l, rate) {
	case BelowThreshold:
		d.Reason = fmt.Sprintf("rate %.3g below detection threshold %.3g", rate, e.threshold)
	case AlreadyDisabled:
		d.Disabled = true
		d.Reason = "already disabled"
	case NewlyDisabled:
		d.Disabled = true
	case Blocked:
		d.Reason = "capacity constraints forbid disabling"
	}
	return d
}

// DisableIfSafe runs the fast checker alone on l, disabling it when
// capacity allows; it reports whether it did.
func (e *Engine) DisableIfSafe(l topology.LinkID) bool { return e.fast.DisableIfSafe(l) }

// FastChecker returns the engine's first phase, for callers that want the
// fast check without the optimizer behind it.
func (e *Engine) FastChecker() *FastChecker { return e.fast }

// LinkRepaired handles a link coming back from repair: its corruption
// record is cleared (stillCorrupting rates get re-reported by monitoring),
// the link is enabled, and the optimizer runs over the remaining active
// corrupting links, as link activations are what create room to disable
// more of them. Clearing the rate first means a registered penalty sum
// never adds and then subtracts the repaired link's penalty. It returns the
// links the optimizer newly disabled.
func (e *Engine) LinkRepaired(l topology.LinkID) []topology.LinkID {
	e.net.SetCorruption(l, 0)
	e.net.Enable(l)
	return e.Sweep(e.threshold)
}

// Reoptimize runs the optimizer without any link state change, returning
// the links it disabled; exposed for periodic background optimization.
func (e *Engine) Reoptimize() ([]topology.LinkID, OptimizeStats) {
	return e.opt.Run(e.threshold)
}

// Sweep is Reoptimize at an explicit threshold, returning only the links
// disabled. It gives the engine the DisableIfSafe/Sweep shape FastChecker
// and SwitchLocal share, so a caller can swap the three policies freely.
func (e *Engine) Sweep(threshold float64) []topology.LinkID {
	disabled, _ := e.opt.Run(threshold)
	return disabled
}
