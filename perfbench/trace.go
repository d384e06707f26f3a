package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Op     int     `json:"op"`     // the op (or sweep item) the span belongs to
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
	Allocs uint64  `json:"allocs,omitempty"`
	Bytes  uint64  `json:"bytes,omitempty"`
	Attr   string  `json:"attr,omitempty"`
}

// tracer keeps spans in memory; write stores them once, at exit.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// begin opens a span and returns its ID; a nil tracer records nothing.
func (t *tracer) begin(name, attr string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Attr: attr, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
}

// call times fn as one span, records the heap allocations it made and
// returns the span's duration in µs. The allocation counts come from
// runtime.MemStats deltas, so fn must be the only goroutine allocating
// while it runs; the span opens after the first reading and closes
// before the second, so its duration excludes them.
func (t *tracer) call(name string, parent, op int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.begin(name, "", parent, op)
	fn()
	t.end(id)
	runtime.ReadMemStats(&m1)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.Allocs = m1.Mallocs - m0.Mallocs
	s.Bytes = m1.TotalAlloc - m0.TotalAlloc
	return s.End - s.Start
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sets every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered is the length of [lo, hi] that the union of the spans covers.
func covered(lo, hi float64, ss []span) float64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	total, reach := 0.0, lo
	for _, s := range ss {
		a, b := max(s.Start, reach), min(s.End, hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// write stores every span, with self times, as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// callStat aggregates the spans of one name.
type callStat struct {
	self           []float64 // µs
	allocs, bytesN float64
}

func (t *tracer) byName() map[string]*callStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfTimes()
	out := map[string]*callStat{}
	for _, s := range t.spans {
		c := out[s.Name]
		if c == nil {
			c = &callStat{}
			out[s.Name] = c
		}
		c.self = append(c.self, s.Self)
		c.allocs += float64(s.Allocs)
		c.bytesN += float64(s.Bytes)
	}
	return out
}

// timedCalls are the layer calls the sweeps time, by span name, with the
// unit their time is reported in. Each also reports <name>_allocs and
// <name>_kb per call.
var timedCalls = []struct{ span, unit string }{
	{"source.parse", "us"},
	{"source.fingerprint", "us"},
	{"sem.check", "us"},
	{"core.transform", "ms"},
	{"analysis.lint", "ms"},
	{"interp.run", "ms"},
	{"interp.compare", "us"},
	{"backend.lower", "us"},
	{"backend.regalloc", "us"},
	{"backend.listsched", "us"},
	{"ims.heuristic", "us"},
	{"exact.prove", "ms"},
	{"pipeline.compile", "ms"},
	{"sim.predecode", "us"},
	{"sim.run", "us"},
	{"prof.run", "us"},
}

// layerValues are the per-layer metrics that are not a call's time:
// ratios, counts and client-side latencies, set in phase.layer by the
// workload's timed phase or its sweep.
var layerValues = []struct{ name, unit string }{
	{"source.parse_cache_hit_rate", "share"},
	{"analysis.recurrence_changed_share", "share"},
	{"core.transform_cache_hit_rate", "share"},
	{"core.loops_applied", "count"},
	{"exact.nodes", "count"},
	{"exact.nodes_per_ms", "1/ms"},
	{"exact.budget_cut_share", "share"},
	{"pipeline.compile_cache_hit_rate", "share"},
	{"pipeline.retained_kb_per_fresh", "KB"},
	{"sim.cycles_per_s", "1/s"},
	{"server.hit_us", "us"},
	{"server.fresh_ms", "ms"},
	{"server.evicted_ms", "ms"},
	{"server.cache_hit_rate", "share"},
	{"server.queue_max", "count"},
	{"server.rejected", "count"},
}

// figureIDs are the 11 paper figures, in the bench package's order.
var figureIDs = []string{"14", "15", "16", "17", "18", "19", "20", "21", "22", "caseA", "caseB"}

// layerMetrics reports every per-layer metric of a traced run.
func layerMetrics(rep *report, tr *tracer, p *phase) {
	calls := tr.byName()
	unitScale := map[string]float64{"us": 1, "ms": 1e-3}
	for _, c := range timedCalls {
		st := calls[c.span]
		if st == nil {
			rep.err = errors.Join(rep.err, fmt.Errorf("no %s spans", c.span))
			continue
		}
		n := float64(len(st.self))
		note := fmt.Sprintf("median self time, n=%d calls", len(st.self))
		rep.metric(c.span+"_"+c.unit, median(st.self)*unitScale[c.unit], c.unit, note)
		rep.metric(c.span+"_allocs", st.allocs/n, "count", "mean per call")
		rep.metric(c.span+"_kb", st.bytesN/n/1024, "KB", "mean per call")
	}
	for _, v := range layerValues {
		x, ok := p.layer[v.name]
		if !ok {
			rep.err = errors.Join(rep.err, fmt.Errorf("no value for %s", v.name))
		}
		rep.metric(v.name, x, v.unit, p.layerNote(v.name))
	}
	for _, id := range figureIDs {
		st := calls["bench.figure."+id]
		if st == nil {
			rep.err = errors.Join(rep.err, fmt.Errorf("no bench.figure.%s spans", id))
			continue
		}
		rep.metric("bench.figure_ms."+id, median(st.self)/1e3, "ms",
			fmt.Sprintf("median over n=%d cold passes", len(st.self)))
	}
	rt := p.rt
	rep.metric("runtime.gc_cpu_share", rt.gcCPU/rt.procCPU, "share", "GC CPU / process CPU over the timed phase")
	rep.metric("runtime.alloc_kb_per_op", rt.allocBytes/1024/float64(rt.ops), "KB", fmt.Sprintf("n=%d ops", rt.ops))
	rep.metric("runtime.heap_live_mb", rt.liveBytes/(1<<20), "MB", "live heap after the last GC of the timed phase")

	// Tracing overhead: the traced half against the untraced half of
	// the same timed phase, as traced/untraced − 1.
	u, tr2 := p.half[0], p.half[1]
	uo, up, ut, _, uc := u.endToEnd()
	to, tp, tt, _, tc := tr2.endToEnd()
	note := fmt.Sprintf("traced/untraced - 1, n=%d untraced, %d traced ops", len(u.lat), len(tr2.lat))
	rep.metric("trace.overhead.ops_per_s", to/uo-1, "share", note)
	rep.metric("trace.overhead.op_p50_ms", tp/up-1, "share", note)
	rep.metric("trace.overhead.op_tail_ms", tt/ut-1, "share", note)
	rep.metric("trace.overhead.cpu_ms_per_op", tc/uc-1, "share", note)
}

// layerNote gives a per-layer value's sample count.
func (p *phase) layerNote(name string) string {
	if n, ok := p.layerN[name]; ok {
		return fmt.Sprintf("n=%d", n)
	}
	return ""
}
