package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Parent is the id of the enclosing span (0: a root);
// Req groups the spans of one serve request (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// do runs f inside a span and returns f's duration. Untraced runs still
// get the duration, from the clock.
func (t *tracer) do(name string, parent int, req int64, f func(id int)) time.Duration {
	if t == nil {
		st := time.Now()
		f(0)
		return time.Since(st)
	}
	id := t.start(name, parent, req)
	f(id)
	return t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children may overlap each
// other, so coverage is the union of their intervals).
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curEnd {
				curEnd = max(curEnd, hi)
				continue
			}
			if open {
				covered += curEnd - curStart
			}
			curStart, curEnd, open = lo, hi, true
		}
		if open {
			covered += curEnd - curStart
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerOf is a span's layer: its name up to the first dot.
func layerOf(s span) string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// selfByLayer sums the self time of every span by layer.
func (t *tracer) selfByLayer() map[string]time.Duration {
	by := map[string]time.Duration{}
	for i, d := range t.selfTimes() {
		by[layerOf(t.spans[i])] += d
	}
	return by
}

// setShares sets <layer>.self_frac for every traced layer: the layer's
// time as a share of the time of all traced layers. Spans of the
// benchmark's own code (layer "bench") count toward neither.
func setShares(r *run, byLayer map[string]time.Duration) {
	var total time.Duration
	for _, l := range traceLayers {
		total += byLayer[l]
	}
	for _, l := range traceLayers {
		if total > 0 {
			r.set(l+".self_frac", byLayer[l].Seconds()/total.Seconds())
		} else {
			r.set(l+".self_frac", 0)
		}
	}
}
