package main

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"corropt/internal/backoff"
	"corropt/internal/core"
	"corropt/internal/ctlplane"
	"corropt/internal/topology"
)

// wireCount tallies socket calls on one end of the loopback traffic,
// through the public dial, listener and packet-conn hooks.
type wireCount struct {
	dials, writes, bytesOut, bytesIn atomic.Int64
}

func (w *wireCount) wrote(n int) {
	w.writes.Add(1)
	w.bytesOut.Add(int64(n))
}

func (w *wireCount) read(n int) { w.bytesIn.Add(int64(n)) }

// dial is a ctlplane/snmplite DialFunc that counts the connection's calls.
func (w *wireCount) dial(network, address string) (net.Conn, error) {
	w.dials.Add(1)
	c, err := net.Dial(network, address)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, w: w}, nil
}

type countingConn struct {
	net.Conn
	w *wireCount
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.wrote(n)
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.read(n)
	return n, err
}

type countingListener struct {
	net.Listener
	w *wireCount
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, w: l.w}, nil
}

type countingPacketConn struct {
	net.PacketConn
	w *wireCount
}

func (c countingPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(p)
	c.w.read(n)
	return n, addr, err
}

func (c countingPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	n, err := c.PacketConn.WriteTo(p, addr)
	c.w.wrote(n)
	return n, err
}

// controlPlane is a controller on loopback TCP plus its agents.
type controlPlane struct {
	ctl      *ctlplane.Controller
	srv, cli wireCount
	agents   []*ctlplane.Client
}

// startControlPlane serves eng on a fresh loopback listener and dials n
// agents, each with its own id so the idempotency cache is live.
func startControlPlane(eng *core.Engine, n int) (*controlPlane, error) {
	cp := &controlPlane{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctl, err := ctlplane.ServeListener(countingListener{Listener: ln, w: &cp.srv}, eng, nil)
	if err != nil {
		_ = ln.Close() // the serve error is the one reported
		return nil, fmt.Errorf("serve: %w", err)
	}
	cp.ctl = ctl
	for i := 0; i < n; i++ {
		cli, err := ctlplane.DialConfig(ctl.Addr().String(), ctlplane.ClientConfig{
			Timeout: 10 * time.Second,
			Dial:    cp.cli.dial,
			Retry:   backoff.Policy{MaxAttempts: 3},
			AgentID: fmt.Sprintf("agent-%d", i),
		})
		if err != nil {
			cp.close()
			return nil, fmt.Errorf("dial agent %d: %w", i, err)
		}
		cp.agents = append(cp.agents, cli)
	}
	return cp, nil
}

// retries counts re-dials beyond each agent's first connection: every one
// is a client retry after a transport failure.
func (cp *controlPlane) retries() int {
	return int(cp.cli.dials.Load()) - len(cp.agents)
}

// countServer closes the control plane, which returns only once every
// reply's write has, and records the controller's socket writes and the
// requests it served, Status calls included.
func (cp *controlPlane) countServer(r *round, served int) {
	cp.close()
	r.add("ctl_srv_writes", float64(cp.srv.writes.Load()))
	r.add("ctl_srv_frames", float64(served))
}

// close is idempotent.
func (cp *controlPlane) close() {
	for _, a := range cp.agents {
		_ = a.Close() // teardown; nothing left to report to
	}
	_ = cp.ctl.Close() // teardown; the run's results are already in hand
}

// opKind discriminates the engine operations an agent can cause.
type opKind uint8

const (
	opReport opKind = iota
	opActivate
)

// engineOp is one agent request: a corruption report or an activation.
type engineOp struct {
	kind opKind
	link topology.LinkID
	rate float64
}

// opResult is the engine's answer to one op.
type opResult struct {
	disabled bool
	reason   string
	newly    []topology.LinkID
}

func (r opResult) String() string {
	return fmt.Sprintf("{disabled:%v reason:%q newly:%v}", r.disabled, r.reason, r.newly)
}

func (r opResult) equal(o opResult) bool {
	return r.disabled == o.disabled && r.reason == o.reason && slices.Equal(r.newly, o.newly)
}

// newlyDisabled reports whether a report result took its link down now.
func (r opResult) newlyDisabled() bool { return r.disabled && r.reason == "" }

// apply runs one op on eng in process.
func apply(eng *core.Engine, op engineOp) opResult {
	if op.kind == opActivate {
		return opResult{newly: eng.LinkRepaired(op.link)}
	}
	d := eng.ReportCorruption(op.link, op.rate)
	return opResult{disabled: d.Disabled, reason: d.Reason}
}

// replayEngine applies ops in order to eng, recording each call's time in
// took when it is non-nil.
func replayEngine(eng *core.Engine, ops []engineOp, took []time.Duration) []opResult {
	out := make([]opResult, len(ops))
	for i, op := range ops {
		t0 := time.Now()
		out[i] = apply(eng, op)
		if took != nil {
			took[i] = time.Since(t0)
		}
	}
	return out
}

// send issues op over the wire from cli.
func send(cli *ctlplane.Client, op engineOp) (opResult, error) {
	if op.kind == opActivate {
		newly, err := cli.Activate(op.link)
		return opResult{newly: newly}, err
	}
	d, err := cli.Report(op.link, op.rate)
	if err != nil {
		return opResult{}, err
	}
	return opResult{disabled: d.Disabled, reason: d.Reason}, nil
}

// spanName names an op's wire span and its replayed engine span.
func spanName(k opKind) (wire, engine string) {
	if k == opActivate {
		return "ctlplane.activate", "core.repair"
	}
	return "ctlplane.report", "core.report"
}

// status is the reference summary a controller's Status must match.
type status struct {
	links, disabled, activeCorrupting int
	worst, penalty                    float64
}

func statusOf(eng *core.Engine) status {
	n := eng.Network()
	return status{
		links:            n.Topology().NumLinks(),
		disabled:         n.NumDisabled(),
		activeCorrupting: n.NumActiveCorrupting(eng.Threshold()),
		worst:            n.WorstToRFraction(),
		penalty:          n.TotalPenalty(core.LinearPenalty),
	}
}

func wireStatus(st *ctlplane.StatusResult) status {
	return status{st.Links, st.Disabled, st.ActiveCorrupting, st.WorstToRFraction, st.TotalPenalty}
}

// envelopes rebuilds the request and reply frames an op sequence puts on
// the wire, for the in-memory encode/decode measurement.
func envelopes(ops []engineOp, res []opResult) []*ctlplane.Envelope {
	out := make([]*ctlplane.Envelope, 0, 2*len(ops))
	for i, op := range ops {
		seq := uint64(i + 1)
		if op.kind == opActivate {
			out = append(out,
				&ctlplane.Envelope{Type: ctlplane.TypeActivate, Agent: "agent-0", Seq: seq, Activate: &ctlplane.Activate{Link: op.link}},
				&ctlplane.Envelope{Type: ctlplane.TypeActivateResult, Seq: seq, ActivateResult: &ctlplane.ActivateResult{Disabled: res[i].newly}})
			continue
		}
		out = append(out,
			&ctlplane.Envelope{Type: ctlplane.TypeReport, Agent: "agent-0", Seq: seq, Report: &ctlplane.Report{Link: op.link, Rate: op.rate}},
			&ctlplane.Envelope{Type: ctlplane.TypeDecision, Seq: seq, Decision: &ctlplane.Decision{Link: op.link, Disabled: res[i].disabled, Reason: res[i].reason}})
	}
	return out
}

// codecCost times WriteMsg and ReadMsg over envs in memory and returns the
// median over three passes of the mean ns per envelope.
func codecCost(envs []*ctlplane.Envelope) (encodeNs, decodeNs float64, err error) {
	if len(envs) == 0 {
		return 0, 0, nil
	}
	var buf bytes.Buffer
	var enc, dec []float64
	for pass := 0; pass < 3; pass++ {
		buf.Reset()
		t0 := time.Now()
		for _, e := range envs {
			if err := ctlplane.WriteMsg(&buf, e); err != nil {
				return 0, 0, fmt.Errorf("encode: %w", err)
			}
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/float64(len(envs)))
		t0 = time.Now()
		for range envs {
			if _, err := ctlplane.ReadMsg(&buf); err != nil {
				return 0, 0, fmt.Errorf("decode: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/float64(len(envs)))
	}
	return median(enc), median(dec), nil
}
