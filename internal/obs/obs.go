// Package obs is the pipeline's zero-dependency telemetry layer:
// hierarchical span tracing over every compilation phase, a lock-cheap
// metrics registry, and per-loop decision records with stable codes.
//
// The package is built around one invariant: when tracing is disabled
// (the default), every call is a no-op behind a single atomic load, and
// every *Span method is safe on a nil receiver. Instrumentation can
// therefore be left permanently in hot paths:
//
//	sp := obs.Root("compile")        // nil when tracing is off
//	defer sp.End()                   // no-op on nil
//	child := sp.Child("mii")         // nil stays nil
//	child.Attr("ii", ii)             // no-op on nil
//
// A decision record is an event of the span it was made under (see
// decision.go), so the tracer keeps one store: its span trees. Exports:
// a trace is written as JSON lines (one object per span, each followed
// by its decisions) or in the Chrome trace_event format loadable in
// chrome://tracing (see WriteTrace). Metrics live in the process-wide
// Registry (see metrics.go).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects the span trees of one tracing session. It holds
// their roots; each root holds its tree's spans, so reading one tree
// never scans the others. A Tracer is safe for concurrent use; span
// creation appends under a mutex (tracing is for diagnosis, not for the
// disabled-path hot loop, which never reaches the mutex).
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
	ids   atomic.Int64
	start time.Time
}

// NewTracer returns an empty tracer. It collects nothing until
// installed with Enable.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// active is the installed tracer, nil when tracing is disabled. The
// disabled fast path is a single atomic pointer load.
var active atomic.Pointer[Tracer]

// Enable installs t as the process-wide tracer. Passing nil disables
// tracing (equivalent to Disable).
func Enable(t *Tracer) { active.Store(t) }

// Disable turns tracing off. Spans already collected remain readable
// from the tracer that collected them.
func Disable() { active.Store(nil) }

// Enabled reports whether a tracer is installed.
func Enabled() bool { return active.Load() != nil }

// Active returns the installed tracer, or nil when tracing is off.
func Active() *Tracer { return active.Load() }

// Span is one timed region of the pipeline. Spans form trees: Root
// creates a tree root, Child a nested span. All methods are safe on a
// nil receiver, so callers never need to test whether tracing is on.
type Span struct {
	tracer *Tracer
	root   *Span // the tree's root (itself for roots)
	ID     int64
	Parent int64 // 0 for roots
	RootID int64 // ID of the tree root (its own ID for roots)
	// Req is the request ID the span tree was started under (see
	// RootRequest); children inherit it, so one served request yields
	// one span tree whose every node carries the same correlation ID.
	Req   string
	Name  string
	Start time.Time
	Dur   time.Duration
	ended atomic.Bool

	mu    sync.Mutex
	attrs []Attr
	decs  []Decision // the decisions made under the span
	tree  []*Span    // on a root: its tree's spans, creation order
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string `json:"key"`
	Val any    `json:"val"`
}

// Root starts a new span tree on the active tracer. Returns nil (a
// valid no-op span) when tracing is disabled.
func Root(name string) *Span {
	t := active.Load()
	if t == nil {
		return nil
	}
	return t.newSpan(name, nil, RequestID())
}

// RootRequest is Root stamped with a request ID: the root and every
// descendant span carry req, tying the whole tree to one served
// request. An empty req falls back to the process-level request ID.
func RootRequest(name, req string) *Span {
	t := active.Load()
	if t == nil {
		return nil
	}
	if req == "" {
		req = RequestID()
	}
	return t.newSpan(name, nil, req)
}

// Child starts a nested span under s. On a nil receiver it returns
// nil, so whole call trees vanish when tracing is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s, s.Req)
}

// newSpan files a new span under parent's root, or as a new root when
// parent is nil.
func (t *Tracer) newSpan(name string, parent *Span, req string) *Span {
	sp := &Span{tracer: t, ID: t.ids.Add(1), Req: req, Name: name, Start: time.Now()}
	if parent == nil {
		sp.root, sp.RootID, sp.tree = sp, sp.ID, []*Span{sp}
		t.mu.Lock()
		t.roots = append(t.roots, sp)
		t.mu.Unlock()
		return sp
	}
	sp.Parent, sp.root, sp.RootID = parent.ID, parent.root, parent.RootID
	sp.root.mu.Lock()
	sp.root.tree = append(sp.root.tree, sp)
	sp.root.mu.Unlock()
	return sp
}

// Attr annotates the span; it returns s so annotations chain. No-op on
// a nil receiver.
func (s *Span) Attr(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
	return s
}

// End closes the span, fixing its duration. Ending twice keeps the
// first duration; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.ended.CompareAndSwap(false, true) {
		s.Dur = time.Since(s.Start)
	}
}

// RequestID returns the request ID the span's tree was started under
// ("" on a nil receiver or an uncorrelated tree).
func (s *Span) RequestID() string {
	if s == nil {
		return ""
	}
	return s.Req
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Tree returns the spans of s's tree in creation order, its root
// first (nil on a nil receiver). It reads that tree alone, whatever
// else the tracer holds.
func (s *Span) Tree() []*Span {
	if s == nil {
		return nil
	}
	r := s.root
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.tree...)
}

// Spans returns the tracer's collected spans in creation order.
// Unended spans are reported with their duration so far.
func (t *Tracer) Spans() []*Span {
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	t.mu.Unlock()
	var out []*Span
	for _, r := range roots {
		out = append(out, r.Tree()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Time runs fn inside a span and records its wall duration into the
// named phase histogram of the default registry. The histogram is
// always recorded (it is cheap); the span only exists when tracing is
// on.
func Time(parent *Span, name string, fn func(sp *Span)) {
	sp := parent.Child(name)
	start := time.Now()
	fn(sp)
	d := time.Since(start)
	sp.End()
	PhaseHist(name).Observe(d)
}
