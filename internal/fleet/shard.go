package fleet

import (
	"fmt"
	"time"

	"corropt/internal/core"
	"corropt/internal/topology"
)

// shard owns one unit of a DCN — a ToR-bearing segment plus any ToR-less
// segments glued to it — and every piece of controller state for it: a
// core.Engine over the unit's standalone sub-topology, whose Network keeps
// the incremental path counter and, with the penalty function registered,
// the unit's running penalty sum. drain runs on a worker pool but touches
// shard-local state only; the supervisor serializes everything that crosses
// shards.
type shard struct {
	dcn      int
	segments int // atomic segments in the unit
	sub      *topology.SegmentGraph
	eng      *core.Engine

	// penalty is the unit's PenaltySum as read after its last drained
	// event. Reading after every event makes the Network's exact-rebuild
	// points a function of the event stream alone, never of when a
	// snapshot happens to be taken.
	penalty float64

	pending   []shardEvent
	decisions []decision
	stats     shardStats
}

// shardEvent is a routed event in shard-local coordinates, tagged with the
// supervisor's global sequence number.
type shardEvent struct {
	seq  uint64
	at   time.Duration
	link topology.LinkID
	kind EventKind
	rate float64
}

// action is a controller decision that must cross the shard boundary.
type action uint8

const (
	actDisable action = iota
	actRepair
)

// decision is one cross-shard controller action: (seq, ord) is a total
// order — seq is the triggering event's routing order, ord the decision's
// index within that event — so merged decisions are identical for every
// worker schedule.
type decision struct {
	seq  uint64
	ord  int32
	at   time.Duration
	dcn  int32
	link topology.LinkID // source-DCN link id
	act  action
}

type shardStats struct {
	corruptions, repairs   int
	disabled, blocked      int
	reoptDisabled, cleared int
}

func (a *shardStats) add(b shardStats) {
	a.corruptions += b.corruptions
	a.repairs += b.repairs
	a.disabled += b.disabled
	a.blocked += b.blocked
	a.reoptDisabled += b.reoptDisabled
	a.cleared += b.cleared
}

// newShard builds the controller state for one unit of DCN dcn.
func newShard(dcn int, u *builtUnit, cfg *Config) (*shard, error) {
	net, err := core.NewNetwork(u.sub.Topo, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	net.RegisterPenalty(cfg.Penalty)
	return &shard{
		dcn:      dcn,
		segments: u.segments,
		sub:      u.sub,
		eng: core.NewEngine(net, core.EngineConfig{
			DetectionThreshold: cfg.Threshold,
			Penalty:            cfg.Penalty,
			Optimizer:          cfg.Optimizer,
		}),
	}, nil
}

// drain processes the shard's pending events in routed order. Corruption
// events are engine reports (one incremental fast-check probe); a repair of
// a link the controller had disabled re-enables it and lets the engine
// re-optimize the unit. Every decision that crosses the shard — ticket
// opens and resolves — is buffered for the supervisor's ordered merge.
func (sh *shard) drain() {
	net := sh.eng.Network()
	for i := range sh.pending {
		ev := &sh.pending[i]
		ord := int32(0)
		switch ev.kind {
		case Corruption:
			sh.stats.corruptions++
			switch sh.eng.Report(ev.link, ev.rate) {
			case core.NewlyDisabled:
				sh.stats.disabled++
				sh.emit(ev, &ord, ev.link, actDisable)
			case core.Blocked:
				sh.stats.blocked++
			}
		case Repair:
			sh.stats.repairs++
			if !net.Disabled(ev.link) {
				// The controller never took the link down; the repair
				// just clears its corruption.
				net.SetCorruption(ev.link, 0)
				sh.stats.cleared++
				break
			}
			sh.emit(ev, &ord, ev.link, actRepair)
			// The repair freed capacity: links the constraint previously
			// blocked may be safe to take down now. Unit-local by the
			// segment boundary invariant — no other unit's counts moved.
			for _, cl := range sh.eng.LinkRepaired(ev.link) {
				sh.stats.reoptDisabled++
				sh.emit(ev, &ord, cl, actDisable)
			}
		}
		sh.penalty = net.PenaltySum()
	}
	sh.pending = sh.pending[:0]
}

func (sh *shard) emit(ev *shardEvent, ord *int32, local topology.LinkID, act action) {
	sh.decisions = append(sh.decisions, decision{
		seq:  ev.seq,
		ord:  *ord,
		at:   ev.at,
		dcn:  int32(sh.dcn),
		link: sh.sub.Links[local],
		act:  act,
	})
	*ord++
}

// builtUnit is one unit's sub-topology before controller state is attached.
type builtUnit struct {
	sub      *topology.SegmentGraph
	segments int
}

// partEntry caches one distinct topology's partition and its units:
// segments with ToR-less orphans glued to a neighbor, so every unit can
// anchor a valid sub-topology.
type partEntry struct {
	topo  *topology.Topology
	segs  []topology.Segment
	units []*builtUnit
}

// partCache memoizes partitions and unit sub-topologies by topology
// pointer: fleets commonly replicate a few shapes many times, and the
// per-unit Networks are the only state that must be per-DCN.
type partCache struct {
	entries []*partEntry
}

func (c *partCache) get(topo *topology.Topology) (*partEntry, error) {
	for _, e := range c.entries {
		if e.topo == topo {
			return e, nil
		}
	}
	if topo.NumLinks() == 0 {
		return nil, fmt.Errorf("fleet: topology has no links")
	}
	segs := topo.Partition()
	var groups [][]topology.Segment
	for _, seg := range segs {
		if len(seg.ToRs) == 0 && len(groups) > 0 {
			groups[len(groups)-1] = append(groups[len(groups)-1], seg)
			continue
		}
		groups = append(groups, []topology.Segment{seg})
	}
	for len(groups) > 1 && len(groups[0][0].ToRs) == 0 {
		groups[1] = append(groups[0], groups[1]...)
		groups = groups[1:]
	}
	if len(groups[0][0].ToRs) == 0 {
		return nil, fmt.Errorf("fleet: topology has no ToR-bearing segments")
	}
	e := &partEntry{topo: topo, segs: segs, units: make([]*builtUnit, len(groups))}
	for i, g := range groups {
		sub, err := topo.SegmentGraph(g)
		if err != nil {
			return nil, err
		}
		e.units[i] = &builtUnit{sub: sub, segments: len(g)}
	}
	c.entries = append(c.entries, e)
	return e, nil
}
