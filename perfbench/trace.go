package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Name is "<layer>.<operation>"; Parent is
// the id of the span that caused it (-1 for a root); Req groups the spans
// of one request, cell or program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's module prefix.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (-1 when tracing is off).
func (t *tracer) start(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setAttr tags span id (the daemon marks client spans "hit" or "miss").
func (t *tracer) setAttr(id int, attr string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Attr = attr
	t.mu.Unlock()
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// named returns the durations of every finished span called name.
func (t *tracer) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfByLayer sums each layer's self time: a span's duration minus the
// part of its interval that its child spans cover. Only spans below a root
// named in roots count, so traced-only probes stay out of the split.
func (t *tracer) selfByLayer(roots ...string) map[string]time.Duration {
	spans := t.closed()
	byID := make(map[int]*span, len(spans))
	children := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if _, ok := byID[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rootOf := func(s *span) string {
		for {
			p, ok := byID[s.Parent]
			if !ok {
				return s.Name
			}
			s = p
		}
	}
	want := map[string]bool{}
	for _, r := range roots {
		want[r] = true
	}
	out := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if !want[rootOf(s)] {
			continue
		}
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p *span, kids []*span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	total += curB - curA
	return time.Duration(total)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.closed())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
