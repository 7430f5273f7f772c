package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-owned timing record around a call into a layer.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root
	Query  int       `json:"query"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs pay one branch per call.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span under parent (0 for a root) and returns its id.
func (r *recorder) start(query, parent int, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: time.Now()})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-timed span.
func (r *recorder) add(query, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: start, End: end})
	return id
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON to path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children counted
// once, children clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// layerTotals sums self time per span name over all spans.
func layerTotals(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
