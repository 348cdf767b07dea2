package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"corropt/internal/topology"
)

// TestWorkloadsTiny runs every workload at the tiny size, untraced and
// traced, through all of its checks.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				o := options{workload: wl.name, seed: 7, trace: trace == "1", spanDir: t.TempDir(), sz: sizeTiny}
				if code := runOptions(o, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   *bool             `json:"correct"`
					Attempted *int              `json:"attempted"`
					Failed    *int              `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if res.Correct == nil || !*res.Correct || res.Failed == nil || *res.Failed != 0 || res.Attempted == nil || *res.Attempted < 1 {
					t.Fatalf("result not clean: %s\n%s", lines[len(lines)-1], stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

func prepareTiny(t *testing.T, name string, seed uint64) instance {
	t.Helper()
	wl, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	inst, err := wl.prepare(seed, sizeTiny)
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	return inst
}

// TestSeedsFixInputs pins the digest contract: the same seed generates the
// same inputs, another seed other inputs.
func TestSeedsFixInputs(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := prepareTiny(t, wl.name, 1), prepareTiny(t, wl.name, 1), prepareTiny(t, wl.name, 2)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 digests differ: %s vs %s", wl.name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 share digest %s", wl.name, a.digest())
		}
	}
}

// requireCaught runs one round and fails the test unless a check failed
// with a reason containing want.
func requireCaught(t *testing.T, inst instance, want string) {
	t.Helper()
	r := inst.round(1, nil)
	if r.failed == 0 {
		t.Fatalf("perturbed reference passed every check")
	}
	for _, p := range r.problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Fatalf("no failure mentions %q: %q", want, r.problems)
}

// The negative controls: one perturbed reference decision must fail the
// round's checks, with a named reason.

func TestStormCatchesPerturbedDecision(t *testing.T) {
	s := prepareTiny(t, "report_storm", 3).(*storm)
	if r := s.round(0, nil); r.failed != 0 {
		t.Fatalf("clean round failed: %q", r.problems)
	}
	w := &s.want[1][len(s.want[1])/2]
	w.disabled = !w.disabled
	requireCaught(t, s, "replay says")
}

func TestChurnCatchesPerturbedActivation(t *testing.T) {
	c := prepareTiny(t, "repair_churn", 3).(*churn)
	if r := c.round(0, nil); r.failed != 0 {
		t.Fatalf("clean round failed: %q", r.problems)
	}
	set := c.sets[1%len(c.sets)] // the set requireCaught's round replays
	for i, op := range set.ops {
		if op.kind == opActivate {
			set.want[i].newly = append(set.want[i].newly, topology.LinkID(0))
			break
		}
	}
	requireCaught(t, c, "replay says")
}

func TestSweepCatchesDivergedTranscript(t *testing.T) {
	s := prepareTiny(t, "monitor_sweep", 3).(*sweep)
	if r := s.round(0, nil); r.failed != 0 {
		t.Fatalf("clean round failed: %q", r.problems)
	}
	s.transcript = "0000000000000000"
	requireCaught(t, s, "differs from round 0")
}

func TestFleetCatchesDivergedSnapshot(t *testing.T) {
	f := prepareTiny(t, "fleet_replay", 3).(*fleetRun)
	if r := f.round(0, nil); r.failed != 0 {
		t.Fatalf("clean round failed: %q", r.problems)
	}
	f.snapshot += "x"
	requireCaught(t, f, "snapshot differs")
	if err := f.layers(emptyLayers(), nil, nil, nil); err == nil {
		t.Fatal("Workers=1 replay matched a perturbed snapshot")
	}
}

// TestSelfTimes pins the coverage rule: overlapping real children count
// once, clipped to the parent; replayed children count whole.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},
		{ID: 3, Parent: 0, Start: 90, End: 120},
		{ID: 4, Parent: 0, Start: 0, End: 5, Replay: true},
		{ID: 5, Parent: -1, Start: 0, End: 10},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10 - 5, 30, 20, 30, 5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLatencies(t *testing.T) {
	// Ten windows of 100 samples; one window is a burst of slow samples.
	l := newLatencies(90)
	for w := 0; w < 10; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 3 {
				v += 1000
			}
			l.add(v)
		}
	}
	if got := l.tail(90); got != 90 {
		t.Errorf("windowed p90 = %v, want 90", got)
	}
	if got := l.median(); math.Abs(got-56)/56 > 5e-4 {
		t.Errorf("median = %v, want 56 within 0.05%%", got)
	}
	short := newLatencies(90)
	for i := 1; i <= 50; i++ {
		short.add(float64(i))
	}
	short.add(math.Inf(1))
	if got := short.tail(90); got != 46 {
		t.Errorf("p90 of one short window = %v, want 46", got)
	}
	fails := newLatencies(50)
	fails.add(1)
	fails.add(math.Inf(1))
	fails.add(math.Inf(1))
	if got := fails.median(); !math.IsInf(got, 1) {
		t.Errorf("median with most samples failed = %v, want +Inf", got)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "report_storm", "--trace", "2"},
		{"--workload", "report_storm", "--seconds", "-1"},
		{"--workload", "report_storm", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
