// Command e2ebench is the end-to-end, per-layer benchmark of CorrOpt's
// deployed loop (Figure 13) and its fleet path (§8). One process generates
// seeded load and drives the real public APIs: telemetry → snmplite (UDP on
// loopback) → detector → ctlplane (TCP on loopback) → core.Engine →
// tickets, plus fleet.Supervisor in process. Layers are timed from outside,
// around the calls into their public functions; nothing inside the program
// is instrumented.
//
// Usage:
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run repeats its workload's fixed unit of work, each repetition (a
// "round") from a fresh controller, until --seconds have passed, checks
// every output against an in-process replay, and prints one JSON object as
// the last line of standard output. With --trace 0 it carries the
// end-to-end metrics; with --trace 1 the run spends half its time untraced
// and half traced, and carries the per-layer metrics plus the tracing
// overhead (traced minus untraced end-to-end values). Human-readable
// tables go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spanDir  string
	// sz is the amount of work per round: sizeFull from the command
	// line, sizeTiny in the self-tests.
	sz size
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to repeat the workload's rounds")
	fs.IntVar(&trace, "trace", 0, "1 runs half untraced and half traced and reports per-layer metrics")
	fs.StringVar(&o.spanDir, "span-dir", ".bench_out", "directory the traced run writes its span dump to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 0 {
		return o, fmt.Errorf("--seconds must be non-negative")
	}
	o.sz = sizeFull
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	return runOptions(o, stdout, stderr)
}

// runOptions runs one benchmark invocation and returns the exit code.
func runOptions(o options, stdout, stderr io.Writer) int {
	wl, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := execute(wl, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute prepares the workload's inputs and runs its rounds.
func execute(wl workload, o options, stderr io.Writer) (*result, error) {
	inst, err := wl.prepare(o.seed, o.sz)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", wl.name, err)
	}
	fmt.Fprintf(stderr, "workload %s seed %d: %s\n", wl.name, o.seed, inst.describe())
	fmt.Fprintf(stderr, "input digest %s\n", inst.digest())
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(stderr, "peak_rss_mb includes input generation: %v\n", err)
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		warm, rounds, lat := repeat(inst, wl, budget, nil)
		res, e2e := summarize(wl, warm, rounds, lat)
		printE2E(stderr, wl, e2e, rounds, lat)
		printFailures(stderr, append([]round{warm}, rounds...))
		res.Metrics = e2e
		return res, nil
	}

	// Traced run: an untraced half for the overhead baseline and the
	// allocation counts, then a traced half for the spans.
	warm, plain, plainLat := repeat(inst, wl, budget/2, nil)
	tr := newTracer()
	twarm, traced, tracedLat := repeat(inst, wl, budget/2, tr)
	res, plainE2E := summarize(wl, warm, plain, plainLat)
	tres, tracedE2E := summarize(wl, twarm, traced, tracedLat)
	res.Correct = res.Correct && tres.Correct
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed

	spans := tr.spans
	layers := emptyLayers()
	res.Attempted++ // the replays behind the per-layer metrics are checked too
	if err := inst.layers(layers, plain, traced, spans); err != nil {
		res.Correct = false
		res.Failed++
		fmt.Fprintf(stderr, "check failed: %v\n", err)
	}
	for _, m := range endToEnd {
		if m.name == "setup_s" || m.name == "peak_rss_mb" {
			continue
		}
		layers["trace_overhead."+m.name] = metric{tracedE2E[m.name].Value - plainE2E[m.name].Value, m.unit}
	}
	fmt.Fprintln(stderr, "untraced half:")
	printE2E(stderr, wl, plainE2E, plain, plainLat)
	fmt.Fprintln(stderr, "traced half:")
	printE2E(stderr, wl, tracedE2E, traced, tracedLat)
	printFailures(stderr, append(append([]round{warm, twarm}, plain...), traced...))
	printSelfTimes(stderr, spans)
	printLayers(stderr, layers)
	path, err := dumpSpans(o.spanDir, wl.name, o.seed, spans)
	if err != nil {
		return nil, fmt.Errorf("write span dump: %w", err)
	}
	fmt.Fprintf(stderr, "span dump: %s (%d spans)\n", path, len(spans))
	res.Metrics = layers
	return res, nil
}

// minRounds is the fewest rounds a run makes, whatever its budget: enough
// for a set-up median and a cross-round determinism check.
const minRounds = 3

// repeat runs one warm-up round, whose checks count but whose timings do
// not, then measured rounds until budget has passed (and at least
// minRounds). The warm-up lets lazy runtime set-up and caches settle. A
// collection before every round starts each from the same heap state, so
// rounds (and the peak resident set) do not depend on where the previous
// round left the garbage collector's cycle. Each measured round's
// latencies go into lat as the round ends, so the harness holds none of
// them for long.
func repeat(inst instance, wl workload, budget time.Duration, tr *tracer) (warm round, rounds []round, lat *latencies) {
	lat = newLatencies(wl.tailPct, wl.namedPct)
	runtime.GC()
	warm = inst.round(0, nil)
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start) < budget {
		runtime.GC()
		r := inst.round(len(rounds)+1, tr)
		for _, v := range r.lat {
			lat.add(v)
		}
		r.lat = nil
		rounds = append(rounds, r)
	}
	return warm, rounds, lat
}

// round is what one repetition of a workload's unit of work reports.
type round struct {
	// setup is the time from nothing to a controller ready for load:
	// topology, core.NewNetwork path counting, sockets, preload.
	setup time.Duration
	// work is the denominator of ops_per_s.
	work time.Duration
	// ops counts completed unit operations.
	ops int
	// lat holds one latency per attempted unit operation, in ms; a failed
	// or refused operation is +Inf, so it misses every latency limit.
	lat []float64
	// attempted and failed count every operation issued on the wire or
	// to the fleet, and every check made.
	attempted, failed int
	// mallocs counts heap allocations during the work phase.
	mallocs uint64
	// problems names each failed check or operation.
	problems []string
	// stats carries workload-specific counts for the per-layer metrics.
	stats map[string]float64
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check, failing it with a named reason.
func (r *round) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *round) add(key string, v float64) {
	if r.stats == nil {
		r.stats = make(map[string]float64)
	}
	r.stats[key] += v
}

// summarize folds the measured rounds into the end-to-end metrics; the
// warm-up round adds only its checks.
func summarize(wl workload, warm round, rounds []round, lat *latencies) (*result, map[string]metric) {
	res := &result{Correct: warm.failed == 0, Attempted: warm.attempted, Failed: warm.failed}
	setups := make([]float64, 0, len(rounds))
	rates := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		setups = append(setups, r.setup.Seconds())
		if r.work > 0 {
			rates = append(rates, float64(r.ops)/r.work.Seconds())
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	m := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"ops_per_s":   {median(rates), "1/s"},
		"op_p50_ms":   {finite(lat.median()), "ms"},
		"op_tail_ms":  {finite(lat.tail(wl.tailPct)), "ms"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	return res, m
}

// finite maps the +Inf of a failed operation to the largest float, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func printE2E(w io.Writer, wl workload, m map[string]metric, rounds []round, lat *latencies) {
	var att, failed, ops int
	for _, r := range rounds {
		att += r.attempted
		failed += r.failed
		ops += r.ops
	}
	samples := lat.count()
	ratio := 0.0
	if att > 0 {
		ratio = float64(failed) / float64(att)
	}
	fmt.Fprintf(w, "  rounds %d, %s: %d completed, %d latency samples\n", len(rounds), wl.op, ops, samples)
	fmt.Fprintf(w, "  %-22s %14.6f s      (median of %d set-ups)\n", "setup_s", m["setup_s"].Value, len(rounds))
	fmt.Fprintf(w, "  %-22s %14.3f %s    (= ops_per_s)\n", wl.rateName, m["ops_per_s"].Value, wl.rateUnit)
	scale := 1.0
	if wl.latUnit == "us" {
		scale = 1e3
	}
	latLine := func(pct string, ms float64, note string) {
		fmt.Fprintf(w, "  %-22s %14.3f %s    (%sn=%d)\n", wl.latName+"_p"+pct+"_"+wl.latUnit, ms*scale, wl.latUnit, note, samples)
	}
	latLine("50", m["op_p50_ms"].Value, "= op_p50_ms, ")
	latLine(fmt.Sprint(wl.tailPct), m["op_tail_ms"].Value, "= op_tail_ms, ")
	if wl.namedPct != wl.tailPct {
		latLine(fmt.Sprint(wl.namedPct), finite(lat.tail(wl.namedPct)), "")
	}
	fmt.Fprintf(w, "  %-22s %14.6f ratio  (%d of %d attempted)\n", "failed_ops_ratio", ratio, failed, att)
	fmt.Fprintf(w, "  %-22s %14.1f MB\n", "peak_rss_mb", m["peak_rss_mb"].Value)
}

func printFailures(w io.Writer, rounds []round) {
	for i, r := range rounds {
		for _, p := range r.problems {
			fmt.Fprintf(w, "check failed (round %d): %s\n", i, p)
		}
	}
}

func printLayers(w io.Writer, layers map[string]metric) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "per-layer metrics:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", n, layers[n].Value, layers[n].Unit)
	}
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's peak-resident-set count (VmHWM) from the current resident set,
// so peak_rss_mb covers the rounds, not the generation of their inputs,
// whose transient garbage otherwise sets the peak at the whim of the
// collector's timing.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// median returns the middle value of xs (mean of the two middles).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

// inf is the latency of a failed or refused operation.
var inf = math.Inf(1)
