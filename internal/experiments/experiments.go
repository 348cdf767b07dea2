// Package experiments regenerates every table and figure of the paper's
// measurement and evaluation sections against the synthetic substrates.
// Each experiment is a named driver producing a Report: the same rows or
// series the paper plots, plus notes comparing the measured shape with the
// published one. The cmd/corropt-experiments binary exposes them on the
// command line, and the repository-root benchmarks run each one per
// table/figure.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"corropt/internal/optics"
	"corropt/internal/topology"
)

// Scale selects the size of the simulated data centers, trading fidelity
// for runtime. The paper's medium DCN has O(15K) links and its large one
// O(35K); ScaleSmall shrinks everything for tests and quick runs while
// preserving topology shape (ToR radix, tier count) and relative fault
// density.
type Scale int

const (
	// ScaleSmall is for tests and smoke runs (hundreds of links).
	ScaleSmall Scale = iota
	// ScaleMedium matches the paper's medium DCN (O(15K) links).
	ScaleMedium
	// ScaleLarge matches the paper's large DCN (O(35K) links).
	ScaleLarge
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Config parameterizes one experiment run.
type Config struct {
	// Scale sizes the simulated data centers.
	Scale Scale
	// Seed roots all randomness; equal seeds reproduce byte-identical
	// reports.
	Seed uint64
	// Workers bounds how many independent scenarios (policy × constraint ×
	// DCN cells, fleet members, staffing-grid cells) run concurrently; 0
	// means one per CPU. Every scenario draws from its own rngutil
	// substream and results are collected in index order, so reports are
	// byte-identical for any Workers value — the knob only changes
	// wall-clock time.
	Workers int
}

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier (e.g. "fig14").
	ID string
	// Title describes what the paper's counterpart shows.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the formatted data rows (the series the paper plots).
	Rows [][]string
	// Notes record paper-vs-measured commentary and substitutions.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a commentary line.
func (r *Report) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteTSV renders the report as tab-separated values with a comment
// preamble.
func (r *Report) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	if len(r.Header) > 0 {
		if _, err := fmt.Fprintln(w, strings.Join(r.Header, "\t")); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the report as a single JSON document for downstream
// tooling (plotting scripts, dashboards).
func (r *Report) WriteJSON(w io.Writer) error {
	doc := struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Notes  []string   `json:"notes,omitempty"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{r.ID, r.Title, r.Notes, r.Header, r.Rows}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Func runs one experiment.
type Func func(Config) (*Report, error)

// registry maps experiment ids to their drivers; populated by init
// functions next to each driver.
var registry = map[string]Func{}

// descriptions holds one-line summaries for listings.
var descriptions = map[string]string{}

func register(id, description string, fn Func) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = fn
	descriptions[id] = description
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Report, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (use List)", id)
	}
	return fn(cfg)
}

// List returns all experiment ids in sorted order with descriptions.
func List() [][2]string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([][2]string, len(ids))
	for i, id := range ids {
		out[i] = [2]string{id, descriptions[id]}
	}
	return out
}

// DefaultTech is the transceiver technology used across experiments.
func DefaultTech() optics.Technology {
	return optics.Technology{Name: "40G-LR4", NominalTx: 0, TxThreshold: -4, RxThreshold: -10, PathLoss: 3}
}

// DCN builds the evaluation topology for the scale. Shapes keep a ToR
// radix of 4–6 uplinks (typical production ToRs), which is what makes the
// switch-local rule so conservative: at c=75%, sc = √c ≈ 0.866 leaves a
// per-switch disable budget of ⌊radix·0.134⌋ = 0.
func DCN(scale Scale) (*topology.Topology, error) {
	switch scale {
	case ScaleSmall:
		return topology.NewClos(topology.ClosConfig{
			Pods: 4, ToRsPerPod: 8, AggsPerPod: 4,
			Spines: 16, SpineUplinksPerAgg: 8, BreakoutSize: 4,
		}) // 256 links
	case ScaleMedium:
		return topology.NewClos(topology.ClosConfig{
			Pods: 45, ToRsPerPod: 40, AggsPerPod: 6,
			Spines: 96, SpineUplinksPerAgg: 16, BreakoutSize: 4,
		}) // 15,120 links ≈ the paper's O(15K) medium DCN
	case ScaleLarge:
		return topology.NewClos(topology.ClosConfig{
			Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
			Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
		}) // 34,560 links ≈ the paper's O(35K) large DCN
	default:
		return nil, fmt.Errorf("experiments: unknown scale %v", scale)
	}
}

// FaultRate is the per-link-per-day fault intensity used in trace-driven
// experiments: a few percent of links corrupt over a three-month window,
// the regime §2–§3 describe.
func FaultRate(scale Scale) float64 {
	if scale == ScaleSmall {
		// Denser on small fabrics so short tests still see events.
		return 0.005
	}
	return 1.0 / 3000
}

func fmtF(v float64) string { return fmt.Sprintf("%.6g", v) }
