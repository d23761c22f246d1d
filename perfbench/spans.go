package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the repository's public API.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Folded is the time of leaf calls made under this span that are
	// too frequent to keep one by one (a subject run per execution):
	// they are summed here and in the recorder's totals instead.
	Folded int64 `json:"folded_ns,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// total is the running sum of one name's calls.
type total struct {
	n int
	d time.Duration
}

// recorder keeps spans in memory and writes them out when the run
// ends. Spans nest through an open-span stack, so a recorder belongs
// to one goroutine. A nil recorder records nothing, which is how the
// untraced runs use the same code paths at no cost.
type recorder struct {
	epoch  time.Time
	spans  []span
	open   []int // indices into spans
	totals map[string]*total
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), totals: map[string]*total{}}
}

// begin opens a span under the innermost open one and returns a
// function that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := 0
	if len(r.open) > 0 {
		parent = r.spans[r.open[len(r.open)-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, i)
	return func() {
		r.spans[i].End = int64(time.Since(r.epoch))
		r.open = r.open[:len(r.open)-1]
	}
}

// leaf records a folded call of duration d under the innermost open
// span: it counts towards that span's children, not its self time.
func (r *recorder) leaf(name string, d time.Duration) {
	if r == nil {
		return
	}
	if len(r.open) > 0 {
		r.spans[r.open[len(r.open)-1]].Folded += int64(d)
	}
	r.add(name, d)
}

// add records a call in the totals only, for calls already covered by
// an enclosing leaf (a journal append inside the event sink).
func (r *recorder) add(name string, d time.Duration) {
	if r == nil {
		return
	}
	t := r.totals[name]
	if t == nil {
		t = &total{}
		r.totals[name] = t
	}
	t.n++
	t.d += d
}

// selfTimes returns each span's self time by ID: its duration minus
// the part of it covered by the union of its direct children (clipped
// to the span, so overlapping or overhanging children count once)
// minus its folded leaf time.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID]) - s.Folded
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	started := false
	for _, v := range ivs {
		switch {
		case !started || v.a >= end:
			sum += v.b - v.a
			end = v.b
			started = true
		case v.b > end:
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// layerStats condenses the recorded spans by name: total duration,
// total self time and every call's duration.
type layerStats struct {
	dur   time.Duration
	self  time.Duration
	calls []float64 // seconds, per call
}

func (r *recorder) byName() map[string]*layerStats {
	out := map[string]*layerStats{}
	if r == nil {
		return out
	}
	self := selfTimes(r.spans)
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		st.dur += time.Duration(s.dur())
		st.self += time.Duration(self[s.ID])
		st.calls = append(st.calls, time.Duration(s.dur()).Seconds())
	}
	return out
}

// dump writes the environment, the totals and every span as JSON
// lines to path.
func (r *recorder) dump(path string, env map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"env": env})
	for _, n := range sortedKeys(r.totals) {
		if err == nil {
			err = enc.Encode(map[string]any{"total": n, "calls": r.totals[n].n, "ns": int64(r.totals[n].d)})
		}
	}
	for i := range r.spans {
		if err == nil {
			err = enc.Encode(&r.spans[i])
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}

// coverage returns the share of the unit spans' time covered by the
// named child spans.
func coverage(rec *recorder, unit string, parts ...string) float64 {
	st := rec.byName()
	u := st[unit]
	if u == nil || u.dur == 0 {
		return 0
	}
	var sum time.Duration
	for _, p := range parts {
		if s := st[p]; s != nil {
			sum += s.dur
		}
	}
	return sum.Seconds() / u.dur.Seconds()
}
