package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// With no tracer installed, span creation returns nil and every method
// is a safe no-op.
func TestDisabledTracerIsNil(t *testing.T) {
	Disable()
	sp := Root("x")
	if sp != nil {
		t.Fatalf("Root with tracing disabled = %v, want nil", sp)
	}
	// All of these must not panic.
	sp.Attr("k", 1).Child("y").Attr("k2", 2).End()
	sp.End()
	if got := sp.Attrs(); got != nil {
		t.Fatalf("nil span Attrs = %v, want nil", got)
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTracer()
	Enable(tr)
	defer Disable()

	root := Root("measure:k1")
	child := root.Child("compile").Attr("cache", "miss")
	grand := child.Child("mii").Attr("ii", 3)
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[0].RootID != spans[0].ID {
		t.Errorf("root span parent/root wrong: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID || spans[1].RootID != spans[0].ID {
		t.Errorf("child span parent/root wrong: %+v", spans[1])
	}
	if spans[2].Parent != spans[1].ID || spans[2].RootID != spans[0].ID {
		t.Errorf("grandchild span parent/root wrong: %+v", spans[2])
	}
	attrs := attrMap(spans[2].Attrs())
	if attrs["ii"] != 3 {
		t.Errorf("grandchild attrs = %v, want ii=3", attrs)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	Enable(tr)
	defer Disable()

	root := Root("measure:kernel8")
	root.Child("parse").End()
	RecordDecision(root, Decision{
		Code: DecMemRefFilter, Verdict: VerdictSkip,
		Reason: "ratio too high", Attrs: map[string]any{"filter_ratio": 0.9},
	})
	root.End()
	rootTS := float64(root.Start.Sub(tr.start)) / float64(time.Microsecond)
	rootEnd := rootTS + float64(root.Dur)/float64(time.Microsecond)

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, FormatChrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var phases []string
	var sawThreadName, sawDecision bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases = append(phases, ph)
		if ph == "M" && ev["name"] == "thread_name" {
			sawThreadName = true
		}
		if ph == "i" && ev["name"] == DecMemRefFilter {
			sawDecision = true
			args := ev["args"].(map[string]any)
			if args["filter_ratio"] != 0.9 {
				t.Errorf("decision args = %v, want filter_ratio=0.9", args)
			}
			// On its span's lane, at the span's end.
			if ev["tid"] != float64(root.RootID) || ev["ts"] != rootEnd {
				t.Errorf("decision at tid %v ts %v, want the span's lane %d at its end %v",
					ev["tid"], ev["ts"], root.RootID, rootEnd)
			}
		}
	}
	if !sawThreadName {
		t.Errorf("no thread_name metadata event in %v", phases)
	}
	if !sawDecision {
		t.Errorf("no instant decision event in %v", phases)
	}
}

func TestJSONLExport(t *testing.T) {
	tr := NewTracer()
	Enable(tr)
	defer Disable()

	Root("a").End()
	b := RootRequest("b", "req-7")
	loop := b.Child("loop@1:1")
	RecordDecision(loop, Decision{Code: DecApplied, Verdict: VerdictAccept})
	loop.End()
	b.End()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, FormatJSONL); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4: %q", len(lines), buf.String())
	}
	var recs []map[string]any
	types := []string{}
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		recs = append(recs, m)
		types = append(types, m["type"].(string))
	}
	if strings.Join(types, " ") != "span span span decision" {
		t.Errorf("line types = %v, want [span span span decision]", types)
	}
	// The decision follows its span and names it, its root and the
	// tree's request ID.
	d := recs[3]
	if d["span"] != float64(loop.ID) || d["root"] != float64(b.ID) || d["request_id"] != "req-7" ||
		d["code"] != DecApplied || d["verdict"] != VerdictAccept {
		t.Errorf("decision line = %v, want span %d, root %d, request_id req-7", d, loop.ID, b.ID)
	}
	if recs[2]["id"] != float64(loop.ID) {
		t.Errorf("decision follows span %v, want its own span %d", recs[2]["id"], loop.ID)
	}
}

// TestRecordDecisionDisabledZeroAlloc: with tracing off a decision only
// bumps its verdict counter, through a handle resolved once.
func TestRecordDecisionDisabledZeroAlloc(t *testing.T) {
	Disable()
	d := Decision{Code: DecApplied, Verdict: VerdictAccept, Attrs: map[string]any{"ii": 2}}
	before := acceptCount().Value()
	if n := testing.AllocsPerRun(1000, func() { RecordDecision(Root("x"), d) }); n != 0 {
		t.Errorf("RecordDecision with tracing off = %v allocs, want 0", n)
	}
	if got := acceptCount().Value() - before; got != 1001 {
		t.Errorf("slms.decisions.accept moved by %d, want 1001", got)
	}
}

func TestWriteTraceUnknownFormat(t *testing.T) {
	tr := NewTracer()
	if err := tr.WriteTrace(&bytes.Buffer{}, "protobuf"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestMetricsRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Counter("c").Add(3)
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(10 * time.Millisecond)
	r.Histogram("h").Observe(20 * time.Millisecond)

	s := r.Snapshot()
	if s.Counters["c"] != 5 {
		t.Errorf("counter = %d, want 5", s.Counters["c"])
	}
	if s.Gauges["g"] != 7 {
		t.Errorf("gauge = %d, want 7", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Seconds < 0.029 || h.Seconds > 0.031 {
		t.Errorf("hist = %+v, want count=2 total≈0.030s", h)
	}
	if h.Max < 0.019 || h.Max > 0.021 {
		t.Errorf("hist max = %v, want ≈0.020", h.Max)
	}
	// The p50 bucket upper bound must be within 2x of the true median.
	if h.P50 < 0.010 || h.P50 > 0.040 {
		t.Errorf("hist p50 = %v, want within [0.010, 0.040]", h.P50)
	}

	text := r.Text()
	for _, want := range []string{"counter c", "gauge   g", "hist    h"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
	r.Reset()
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("after Reset: %+v", s)
	}
}

func TestTimeRecordsPhaseHistogram(t *testing.T) {
	Default.Reset()
	Disable()
	Time(nil, "unit-test-phase", func(sp *Span) {
		if sp != nil {
			t.Error("Time gave a non-nil span with tracing disabled")
		}
	})
	if got := PhaseHist("unit-test-phase").count.Load(); got != 1 {
		t.Errorf("phase histogram count = %d, want 1", got)
	}
}

func TestCLILogQuiet(t *testing.T) {
	var buf bytes.Buffer
	SetLogOutput(&buf)
	t.Cleanup(func() { SetQuiet(false); SetLogOutput(os.Stderr) })

	SetQuiet(false)
	Logf("hello %d", 1)
	SetQuiet(true)
	Logf("suppressed")
	Warnf("warned")
	out := buf.String()
	if !strings.Contains(out, "slms: hello 1") {
		t.Errorf("missing info line: %q", out)
	}
	if strings.Contains(out, "suppressed") {
		t.Errorf("quiet did not suppress info: %q", out)
	}
	if !strings.Contains(out, "slms: warning: warned") {
		t.Errorf("missing warning line: %q", out)
	}
}

// BenchmarkDisabledSpan measures the cost of the disabled-tracer path:
// a full root+child+attr+end call tree must stay in the nanosecond
// range (one atomic pointer load per Root). The bench harness's
// overhead guard multiplies this by the span count of a traced run.
func BenchmarkDisabledSpan(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Root("bench")
		sp.Child("child").Attr("k", i).End()
		sp.End()
	}
}

// BenchmarkEnabledSpan is the enabled-path cost, for comparison.
func BenchmarkEnabledSpan(b *testing.B) {
	Enable(NewTracer())
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Root("bench")
		sp.Child("child").Attr("k", i).End()
		sp.End()
	}
}

// TestChromeTraceSchema validates -trace-format=chrome output against a
// strict trace_event schema: every event carries a known phase, a
// constant pid, a lane (tid), and non-negative timestamps/durations;
// within each lane timestamps are monotonically non-decreasing (the
// writer sorts by lane then time so identical traces serialize
// identically, and chrome://tracing renders lanes left to right).
func TestChromeTraceSchema(t *testing.T) {
	tr := NewTracer()
	Enable(tr)
	defer Disable()

	// Two span trees = two lanes, with nested children and decisions.
	for _, name := range []string{"measure:k1", "measure:k2"} {
		root := Root(name).Attr("machine", "ia64")
		parse := root.Child("parse")
		parse.End()
		sim := root.Child("sim")
		sim.Child("block").End()
		sim.End()
		RecordDecision(sim, Decision{Code: DecApplied, Verdict: VerdictAccept})
		root.End()
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, FormatChrome); err != nil {
		t.Fatal(err)
	}

	// The full trace_event schema the tooling relies on. DisallowUnknownFields
	// makes this a two-way check: no event carries fields the schema
	// doesn't know about.
	type event struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		PID   int            `json:"pid"`
		TID   int64          `json:"tid"`
		Scope string         `json:"s"`
		Args  map[string]any `json:"args"`
	}
	type doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var d doc
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("chrome trace violates the trace_event schema: %v", err)
	}
	if len(d.TraceEvents) < 10 {
		t.Fatalf("got %d events, want >= 10 (2 lanes x (name + 4 spans + decision))", len(d.TraceEvents))
	}

	lanes := map[int64]float64{} // lane -> last ts seen
	laneNames := map[int64]bool{}
	for i, ev := range d.TraceEvents {
		switch ev.Phase {
		case "X": // complete span
			if ev.Dur < 0 {
				t.Errorf("event %d (%s): negative duration %v", i, ev.Name, ev.Dur)
			}
		case "M": // metadata
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Errorf("event %d: metadata without a lane name: %+v", i, ev)
			}
			laneNames[ev.TID] = true
		case "i": // instant decision
			if ev.Scope != "t" {
				t.Errorf("event %d (%s): instant scope = %q, want \"t\"", i, ev.Name, ev.Scope)
			}
		default:
			t.Errorf("event %d (%s): unknown phase %q", i, ev.Name, ev.Phase)
		}
		if ev.PID != 1 {
			t.Errorf("event %d (%s): pid = %d, want the constant 1", i, ev.Name, ev.PID)
		}
		if ev.TID == 0 {
			t.Errorf("event %d (%s): no lane (tid 0)", i, ev.Name)
		}
		if ev.TS < 0 {
			t.Errorf("event %d (%s): negative ts %v", i, ev.Name, ev.TS)
		}
		if last, seen := lanes[ev.TID]; seen && ev.TS < last {
			t.Errorf("event %d (%s): ts %v regresses below %v within lane %d",
				i, ev.Name, ev.TS, last, ev.TID)
		}
		lanes[ev.TID] = ev.TS
	}
	if len(lanes) != 2 {
		t.Errorf("got %d lanes, want 2 (one per root span)", len(lanes))
	}
	for tid := range lanes {
		if !laneNames[tid] {
			t.Errorf("lane %d has no thread_name metadata", tid)
		}
	}
}
