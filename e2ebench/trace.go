package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Spans of one report,
// activation, interval or batch share a request id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Replay marks a span timed in an in-process replay of its parent's
	// work (the engine behind a wire round trip). It is not on the
	// parent's timeline; its whole duration counts as covered.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer records nothing, which is
// how untraced rounds run. A tracer is used by one goroutine; concurrent
// agents each own one and absorb merges them.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// child returns a tracer for another goroutine sharing t's epoch.
func (t *tracer) child() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{epoch: t.epoch}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// replayed attaches a replayed child of duration d to span parent.
func (t *tracer) replayed(name string, parent int, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Req: p.Req, Name: name,
		Start: p.Start, End: p.Start + int64(d), Replay: true,
	})
}

// absorb appends o's spans to t, renumbering ids, and returns the offset
// added to o's ids.
func (t *tracer) absorb(o *tracer) int {
	if t == nil || o == nil {
		return 0
	}
	off := len(t.spans)
	for _, s := range o.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	return off
}

// selfTimes returns each span's duration minus its children's coverage:
// the union of real children's intervals clipped to the span, plus the
// whole duration of replayed children.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		var covered int64
		for _, k := range kids[i] {
			c := spans[k]
			if c.Replay {
				covered += c.dur()
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var curLo, curHi int64 = 0, -1
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = max(0, s.dur()-covered)
	}
	return self
}

// spanStats gathers the durations and self times of the spans named name.
func spanStats(spans []span, self []int64, name string) (durs, selfs []float64) {
	for i, s := range spans {
		if s.Name == name {
			durs = append(durs, float64(s.dur()))
			selfs = append(selfs, float64(self[i]))
		}
	}
	return durs, selfs
}

// printSelfTimes writes the per-name self-time table.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct {
		name        string
		n           int
		total, self int64
		replay      bool
	}
	byName := map[string]*row{}
	var order []string
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &row{name: s.Name, replay: s.Replay}
			byName[s.Name] = r
			order = append(order, s.Name)
		}
		r.n++
		r.total += s.dur()
		r.self += self[i]
	}
	sort.Strings(order)
	fmt.Fprintln(w, "self-time table (traced half):")
	fmt.Fprintf(w, "  %-20s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, n := range order {
		r := byName[n]
		tag := ""
		if r.replay {
			tag = " (replayed)"
		}
		fmt.Fprintf(w, "  %-20s %9d %12.3f %12.3f %10.3f%s\n", r.name, r.n,
			float64(r.total)/1e6, float64(r.self)/1e6, float64(r.self)/1e3/float64(r.n), tag)
	}
}

// dumpSpans writes spans as gzip-compressed JSON lines and returns the
// file's path.
func dumpSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one reported
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return "", err
	}
	if err := zw.Close(); err != nil {
		_ = f.Close() // the gzip error is the one reported
		return "", err
	}
	return path, f.Close()
}
