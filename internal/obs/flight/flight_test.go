package flight

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"slms/internal/obs"
)

// Counters are process-wide (shared by name in obs.Default), so tests
// assert deltas, never absolute values.

func testConfig() Config {
	return Config{RingSize: 4, BodyCap: 32, Cooldown: time.Hour}
}

func TestRingWraparound(t *testing.T) {
	r := New(testConfig())
	ring := r.Endpoint("compile")
	for i := 0; i < 6; i++ {
		ring.Record(&Obs{Status: 200, RequestID: "r" + string(rune('0'+i)), Dur: time.Duration(i) * time.Millisecond})
	}
	if ring.Len() != 4 {
		t.Fatalf("Len = %d, want ring capacity 4", ring.Len())
	}
	ed := ring.snapshot()
	if len(ed.Records) != 4 {
		t.Fatalf("snapshot records = %d, want 4", len(ed.Records))
	}
	// Oldest-first, and the two earliest records were lapped.
	for i, rec := range ed.Records {
		if want := "r" + string(rune('2'+i)); rec.RequestID != want {
			t.Errorf("record[%d].RequestID = %q, want %q (chronological, lapped entries gone)", i, rec.RequestID, want)
		}
		if i > 0 && rec.Seq <= ed.Records[i-1].Seq {
			t.Errorf("record[%d].Seq = %d not increasing", i, rec.Seq)
		}
	}
}

func TestBodyTruncation(t *testing.T) {
	r := New(testConfig()) // BodyCap 32
	ring := r.Endpoint("compile")
	long := strings.Repeat("x", 100)
	ring.Record(&Obs{Status: 200, RequestID: "r1", Body: []byte(long)})
	ring.Record(&Obs{Status: 200, RequestID: "r2", Body: []byte("short")})

	recs := ring.snapshot().Records
	if got := recs[0]; !got.Truncated || got.Body != long[:32] || got.BodyLen != 100 {
		t.Errorf("long body: truncated=%v len(body)=%d body_len=%d, want true/32/100",
			got.Truncated, len(got.Body), got.BodyLen)
	}
	if got := recs[1]; got.Truncated || got.Body != "short" || got.BodyLen != 5 {
		t.Errorf("short body kept wrong: %+v", got)
	}
}

// TestSlotCopiesCallerMemory proves a slot never aliases the caller's
// (pooled, about-to-be-recycled) buffers.
func TestSlotCopiesCallerMemory(t *testing.T) {
	r := New(testConfig())
	ring := r.Endpoint("compile")
	body := []byte(`{"source":"x"}`)
	ring.Record(&Obs{Status: 200, RequestID: "r1", Fingerprint: "fp", Cache: "hit",
		DeadlineMS: -1, Dur: time.Millisecond, Body: body})
	for i := range body {
		body[i] = '!'
	}
	if got := ring.snapshot().Records[0].Body; got != `{"source":"x"}` {
		t.Errorf("slot aliased caller memory: body = %q", got)
	}
}

func TestExemplarHeapKeepsSlowest(t *testing.T) {
	r := New(testConfig())
	ring := r.Endpoint("compile")
	// Durations chosen so the slowest eight (topK) arrive interleaved
	// with fast requests that must be evicted (or never admitted).
	for _, ms := range []int{5, 90, 1, 70, 2, 80, 3, 60, 4, 50, 6, 40, 7, 30, 8, 20} {
		ring.Record(&Obs{Status: 200, RequestID: "q", Dur: time.Duration(ms) * time.Millisecond})
	}
	slow := ring.snapshot().Slowest
	if len(slow) != topK {
		t.Fatalf("exemplars = %d, want %d", len(slow), topK)
	}
	want := []int64{90000, 80000, 70000, 60000, 50000, 40000, 30000, 20000} // slowest-first, in µs
	for i, rec := range slow {
		if rec.DurUS != want[i] {
			t.Errorf("slowest[%d].DurUS = %d, want %d", i, rec.DurUS, want[i])
		}
	}
}

// TestExemplarSurvivesRingLap is the point of the heap: an outlier
// stays visible after the ring has lapped it.
func TestExemplarSurvivesRingLap(t *testing.T) {
	r := New(testConfig())
	ring := r.Endpoint("compile")
	ring.Record(&Obs{Status: 200, RequestID: "outlier", Dur: time.Second})
	for i := 0; i < 10; i++ { // laps the 4-slot ring
		ring.Record(&Obs{Status: 200, RequestID: "fast", Dur: time.Millisecond})
	}
	ed := ring.snapshot()
	for _, rec := range ed.Records {
		if rec.RequestID == "outlier" {
			t.Fatalf("outlier unexpectedly still in the ring; laps broken")
		}
	}
	if len(ed.Slowest) == 0 || ed.Slowest[0].RequestID != "outlier" {
		t.Errorf("outlier lost: slowest = %+v", ed.Slowest)
	}
}

// TestRecordZeroAlloc: recording allocates nothing for either shape of
// record the server fills — a cached hit, and a full-path record with
// spans and decisions — so the cached path stays at 0 allocs/op.
func TestRecordZeroAlloc(t *testing.T) {
	r := New(Config{Cooldown: time.Hour})
	ring := r.Endpoint("compile")
	body := []byte(`{"source": "float A[8]; for (i = 0; i < 8; i = i + 1) { A[i] = 1.0; }"}`)
	hit := Obs{Status: 200, RequestID: "r00000042", Fingerprint: "deadbeef", Cache: "hit",
		DeadlineMS: -1, Dur: 517 * time.Microsecond, Body: body}
	miss := Obs{Status: 200, RequestID: "r00000043", Fingerprint: "deadbeef", Cache: "miss",
		DeadlineMS: 9999, Dur: 2 * time.Millisecond, Body: body,
		Spans:     []SpanNote{{Name: "server.compile", DurUS: 2000}},
		Decisions: []DecisionNote{{Loop: "1:28", Code: "SLMS200", Verdict: "accept"}}}
	for _, o := range []*Obs{&hit, &miss} {
		if allocs := testing.AllocsPerRun(200, func() { ring.Record(o) }); allocs != 0 {
			t.Errorf("Record(cache=%s) allocs/op = %g, want 0", o.Cache, allocs)
		}
	}
}

func TestDisabledRecorderNoops(t *testing.T) {
	r := New(Config{Disabled: true})
	if r.Enabled() {
		t.Fatal("Disabled recorder reports Enabled")
	}
	ring := r.Endpoint("compile")
	if ring != nil {
		t.Fatalf("disabled recorder handed out a ring")
	}
	ring.Record(&Obs{Status: 500}) // nil receiver: must not panic
	if ring.Len() != 0 {
		t.Errorf("nil ring Len = %d", ring.Len())
	}
	if r.Trigger(Trig5xx, "") || r.ForceTrigger(TrigSigquit, "") {
		t.Error("disabled recorder accepted a trigger")
	}
	r.Sync()

	// And the full nil-recorder surface, mirroring obs.Span.
	var nilRec *Recorder
	if nilRec.Enabled() || nilRec.Endpoint("x") != nil || nilRec.Trigger("x", "") {
		t.Error("nil recorder not inert")
	}
	nilRec.AddState("x", func() any { return nil })
	nilRec.Sync()
}

func TestTriggerCooldownDropsAndCounts(t *testing.T) {
	r := New(Config{Cooldown: time.Hour})
	before := r.DroppedTriggers()
	if !r.Trigger(Trig5xx, "first") {
		t.Fatal("first trigger rejected")
	}
	for i := 0; i < 3; i++ {
		if r.Trigger(Trig5xx, "storm") {
			t.Fatal("trigger accepted inside the cooldown")
		}
	}
	if got := r.DroppedTriggers() - before; got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	// Forced triggers bypass the cooldown (and re-arm it).
	if !r.ForceTrigger(TrigSigquit, "") {
		t.Error("ForceTrigger lost to the cooldown")
	}
	if r.Trigger(Trig5xx, "") {
		t.Error("anomaly trigger accepted right after a forced dump")
	}
	r.Sync()
}

func TestTriggerCooldownElapses(t *testing.T) {
	r := New(Config{Cooldown: time.Millisecond})
	if !r.Trigger(Trig5xx, "") {
		t.Fatal("first trigger rejected")
	}
	time.Sleep(5 * time.Millisecond)
	if !r.Trigger(Trig5xx, "") {
		t.Error("trigger rejected after the cooldown elapsed")
	}
	r.Sync()
}

func TestDumpWriteDecodeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Dir = dir
	r := New(cfg)
	r.AddState("server", func() any { return map[string]int{"workers": 4} })
	r.Endpoint("compile").Record(&Obs{
		Status: 422, RequestID: "r00000007", Fingerprint: "abcd1234",
		DeadlineMS: 9999, Dur: 250 * time.Microsecond, ErrCode: "SLMS422",
		Body:      []byte(`{"source":"for (i"}`),
		Spans:     []SpanNote{{Name: "server.compile", DurUS: 250}},
		Decisions: []DecisionNote{{Loop: "1:5", Code: "SLMS422", Verdict: "error", Reason: "parse"}},
	})
	wrote := r.DumpsWritten()
	if !r.ForceTrigger(TrigSigquit, "test") {
		t.Fatal("trigger rejected")
	}
	r.Sync()
	if got := r.DumpsWritten() - wrote; got != 1 {
		t.Fatalf("dumps written = %d, want 1", got)
	}

	names := r.dumpNames()
	if len(names) != 1 || !strings.HasSuffix(names[0], "-sigquit.json") {
		t.Fatalf("dump files = %v, want one *-sigquit.json", names)
	}
	d, err := DecodeFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatalf("DecodeFile: %v", err)
	}
	if d.Schema != Schema || d.Reason != TrigSigquit || d.Detail != "test" {
		t.Errorf("header = %s/%s/%s", d.Schema, d.Reason, d.Detail)
	}
	if d.NumGoroutine <= 0 || !strings.Contains(d.Goroutines, "goroutine") {
		t.Errorf("goroutine capture missing: n=%d", d.NumGoroutine)
	}
	if d.Mem.HeapAllocBytes == 0 {
		t.Error("memstats missing")
	}
	var st map[string]int
	if err := json.Unmarshal(d.State["server"], &st); err != nil || st["workers"] != 4 {
		t.Errorf("state snapshot = %s (%v)", d.State["server"], err)
	}

	recs := d.Timeline()
	if len(recs) != 1 {
		t.Fatalf("timeline = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.RequestID != "r00000007" || rec.ErrCode != "SLMS422" ||
		rec.Body != `{"source":"for (i"}` || len(rec.Decisions) != 1 || len(rec.Spans) != 1 {
		t.Errorf("round-tripped record lost fields: %+v", rec)
	}

	// The in-memory copy matches what hit the disk.
	blob, name, ok := r.Latest()
	if !ok || name != names[0] {
		t.Fatalf("Latest = %q/%v, want %q", name, ok, names[0])
	}
	disk, _ := os.ReadFile(filepath.Join(dir, names[0]))
	if string(blob) != string(disk) {
		t.Error("in-memory dump differs from the file")
	}
}

func TestTimelineDedupesExemplars(t *testing.T) {
	d := &Dump{Endpoints: []EndpointDump{
		{
			Endpoint: "compile",
			Records:  []Record{{Seq: 3}, {Seq: 5}},
			Slowest:  []Record{{Seq: 5}, {Seq: 1}}, // 5 is still in the ring; 1 was lapped
		},
		{Endpoint: "schedule", Records: []Record{{Seq: 4}}},
	}}
	got := d.Timeline()
	want := []int64{1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("timeline = %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Seq != want[i] {
			t.Errorf("timeline[%d].Seq = %d, want %d", i, rec.Seq, want[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-sigquit.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		data   []byte
		reason string // substring of the FormatError reason; "" = must decode
	}{
		{"golden", golden, ""},
		{"empty", nil, "not valid JSON"},
		{"truncated", golden[:len(golden)/2], "not valid JSON"},
		{"garbage", []byte("\x00\x01\x02"), "not valid JSON"},
		{"html", []byte("<html>502 Bad Gateway</html>"), "not valid JSON"},
		{"wrong schema", []byte(`{"schema":"flightdump/v9","reason":"5xx"}`), `schema "flightdump/v9"`},
		{"no schema", []byte(`{"reason":"5xx"}`), `schema ""`},
		{"no reason", []byte(`{"schema":"flightdump/v1"}`), "missing trigger reason"},
		{"wrong type", []byte(`{"schema":"flightdump/v1","reason":"5xx","endpoints":42}`), "not valid JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Decode(tc.data) // must never panic
			if tc.reason == "" {
				if err != nil {
					t.Fatalf("Decode(golden): %v", err)
				}
				if d.Reason != "sigquit" || len(d.Timeline()) != 2 {
					t.Errorf("golden decoded wrong: reason=%s timeline=%d", d.Reason, len(d.Timeline()))
				}
				return
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Decode error = %T (%v), want *FormatError", err, err)
			}
			if !strings.Contains(fe.Reason, tc.reason) {
				t.Errorf("reason = %q, want substring %q", fe.Reason, tc.reason)
			}
		})
	}

	// DecodeFile stamps the path into the error.
	bad := filepath.Join(t.TempDir(), "flight-000001-5xx.json")
	os.WriteFile(bad, []byte("{truncated"), 0o644)
	_, err = DecodeFile(bad)
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Path != bad {
		t.Errorf("DecodeFile error = %v, want *FormatError with path", err)
	}
	if _, err := DecodeFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("DecodeFile(absent) succeeded")
	}
}

func TestSpanTree(t *testing.T) {
	if SpanTree(nil) != nil {
		t.Error("SpanTree(nil) != nil")
	}
	tr := obs.NewTracer()
	obs.Enable(tr)
	t.Cleanup(obs.Disable)

	root := obs.RootRequest("server.compile", "r1")
	child := root.Child("transform")
	grand := child.Child("mii")
	grand.End()
	child.End()
	other := obs.RootRequest("server.schedule", "r2") // different tree: excluded
	other.End()
	root.End()

	notes := SpanTree(root)
	want := []struct {
		name  string
		depth int
	}{{"server.compile", 0}, {"transform", 1}, {"mii", 2}}
	if len(notes) != len(want) {
		t.Fatalf("notes = %+v, want %d spans of root's tree only", notes, len(want))
	}
	for i, n := range notes {
		if n.Name != want[i].name || n.Depth != want[i].depth {
			t.Errorf("notes[%d] = %+v, want %s at depth %d", i, n, want[i].name, want[i].depth)
		}
	}
}

// TestSpanTreeCostIndependentOfEarlierTrees: a capture reads its own
// request's tree, so what it allocates does not grow with the number
// of trees the tracer already holds.
func TestSpanTreeCostIndependentOfEarlierTrees(t *testing.T) {
	obs.Enable(obs.NewTracer())
	t.Cleanup(obs.Disable)
	tree := func() *obs.Span { // a 15-span request tree
		root := obs.RootRequest("server.compile", "r")
		for i := 0; i < 14; i++ {
			root.Child("loop").End()
		}
		root.End()
		return root
	}
	perCapture := func() (allocs float64, bytes uint64) {
		root := tree()
		allocs = testing.AllocsPerRun(100, func() { SpanTree(root) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			SpanTree(root)
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 100
	}
	for i := 0; i < 10; i++ {
		tree()
	}
	fewAllocs, fewBytes := perCapture()
	for i := 0; i < 1000; i++ {
		tree()
	}
	manyAllocs, manyBytes := perCapture()
	if manyAllocs > fewAllocs || manyBytes > 2*fewBytes {
		t.Errorf("capture after 1,000 earlier trees: %.0f allocs, %d B; after 10: %.0f allocs, %d B",
			manyAllocs, manyBytes, fewAllocs, fewBytes)
	}
}

// --- /debug/flight handler ---

func flightGet(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("error body is not an envelope: %s", body)
	}
	return envelope.Error.Code
}

func TestHandlerIndexAndLatest(t *testing.T) {
	cfg := testConfig()
	cfg.Dir = t.TempDir()
	r := New(cfg)
	h := Handler(r)

	// Empty recorder: index works, latest is a typed 404.
	code, body := flightGet(t, h, "/debug/flight")
	if code != 200 {
		t.Fatalf("index = %d: %s", code, body)
	}
	var idx IndexResponse
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Schema != "flightindex/v1" || !idx.Enabled || idx.Latest != "" || len(idx.Dumps) != 0 {
		t.Errorf("empty index = %+v", idx)
	}
	if code, body := flightGet(t, h, "/debug/flight/latest"); code != 404 || errCode(t, body) != "flight_no_dumps" {
		t.Errorf("empty latest = %d %s", code, body)
	}

	r.Endpoint("compile").Record(&Obs{Status: 500, RequestID: "r1", ErrCode: "SLMS500"})
	r.ForceTrigger(Trig5xx, "boom")
	r.Sync()

	code, body = flightGet(t, h, "/debug/flight")
	if err := json.Unmarshal(body, &idx); err != nil || code != 200 {
		t.Fatalf("index after dump = %d (%v)", code, err)
	}
	if idx.Latest == "" || len(idx.Dumps) != 1 || idx.Dumps[0].Name != idx.Latest || idx.Dumps[0].Size == 0 {
		t.Errorf("index after dump = %+v", idx)
	}
	if len(idx.Rings) != 1 || idx.Rings[0].Endpoint != "compile" || idx.Rings[0].Records != 1 {
		t.Errorf("ring occupancy = %+v", idx.Rings)
	}

	for _, path := range []string{"/debug/flight/latest", "/debug/flight/" + idx.Latest} {
		code, body = flightGet(t, h, path)
		if code != 200 {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		d, err := Decode(body)
		if err != nil {
			t.Fatalf("GET %s served an undecodable dump: %v", path, err)
		}
		if d.Reason != Trig5xx || d.Detail != "boom" {
			t.Errorf("GET %s = %s/%s", path, d.Reason, d.Detail)
		}
	}
}

func TestHandlerErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Dir = t.TempDir()
	r := New(cfg)
	h := Handler(r)

	req := httptest.NewRequest(http.MethodPost, "/debug/flight", strings.NewReader("{}"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 405 || errCode(t, w.Body.Bytes()) != "flight_method_not_allowed" {
		t.Errorf("POST = %d %s", w.Code, w.Body.String())
	}

	for _, name := range []string{"../../etc/passwd", "notflight.json", "flight-000001-5xx.txt", "flight-..-x.json"} {
		code, body := flightGet(t, h, "/debug/flight/"+name)
		// Path traversal either fails name validation (400) or, when the
		// router collapses the dots, simply isn't found (404) — never 200.
		if code != 400 && code != 404 {
			t.Errorf("GET %q = %d %s, want 400/404", name, code, body)
		}
	}

	if code, body := flightGet(t, h, "/debug/flight/flight-000009-5xx.json"); code != 404 || errCode(t, body) != "flight_not_found" {
		t.Errorf("absent dump = %d %s", code, body)
	}

	// A corrupt file on disk answers a typed 500, never a panic or a
	// half-served blob.
	corrupt := "flight-000042-5xx.json"
	os.WriteFile(filepath.Join(cfg.Dir, corrupt), []byte(`{"schema":"flightdump/v1","rea`), 0o644)
	code, body := flightGet(t, h, "/debug/flight/"+corrupt)
	if code != 500 || errCode(t, body) != "flight_corrupt_dump" {
		t.Errorf("corrupt dump = %d %s, want 500 flight_corrupt_dump", code, body)
	}
	// ... and being the newest file, it poisons /latest the same safe way.
	if code, body := flightGet(t, h, "/debug/flight/latest"); code != 500 || errCode(t, body) != "flight_corrupt_dump" {
		t.Errorf("corrupt latest = %d %s", code, body)
	}
}
