package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"slms/internal/obs"
)

// Schema is the dump format version. Decoders reject anything else: a
// dump is a postmortem artifact read far from the process that wrote
// it, so the version check is the contract, not a formality.
const Schema = "flightdump/v1"

// Record is one captured request as serialized into a dump.
type Record struct {
	Seq         int64          `json:"seq"`
	TimeUnixNS  int64          `json:"time_unix_ns"`
	Endpoint    string         `json:"endpoint"`
	Status      int            `json:"status"`
	RequestID   string         `json:"request_id"`
	Fingerprint string         `json:"fingerprint,omitempty"`
	Cache       string         `json:"cache,omitempty"`
	DeadlineMS  int64          `json:"deadline_ms"`
	DurUS       int64          `json:"dur_us"`
	ErrCode     string         `json:"err_code,omitempty"`
	Body        string         `json:"body,omitempty"`
	BodyLen     int            `json:"body_len"`
	Truncated   bool           `json:"truncated,omitempty"`
	Spans       []SpanNote     `json:"spans,omitempty"`
	Decisions   []DecisionNote `json:"decisions,omitempty"`
}

// EndpointDump is one endpoint's capture state inside a dump: the ring
// chronologically plus the slowest-request exemplars, slowest first.
type EndpointDump struct {
	Endpoint string   `json:"endpoint"`
	Records  []Record `json:"records"`
	Slowest  []Record `json:"slowest,omitempty"`
}

// MemSnapshot is the runtime.MemStats subset worth keeping in a dump.
type MemSnapshot struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapObjects     uint64 `json:"heap_objects"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	SysBytes        uint64 `json:"sys_bytes"`
	NumGC           uint32 `json:"num_gc"`
	PauseTotalNS    uint64 `json:"pause_total_ns"`
}

// Dump is one flightdump/v1 snapshot: everything needed to understand
// — and with slmsfr, replay — the requests leading up to an anomaly,
// with no access to the process that wrote it.
type Dump struct {
	Schema          string                     `json:"schema"`
	Seq             int64                      `json:"seq"`
	Time            time.Time                  `json:"time"`
	Reason          string                     `json:"reason"`
	Detail          string                     `json:"detail,omitempty"`
	DroppedTriggers int64                      `json:"dropped_triggers"`
	Endpoints       []EndpointDump             `json:"endpoints"`
	NumGoroutine    int                        `json:"num_goroutine"`
	Goroutines      string                     `json:"goroutines"`
	Mem             MemSnapshot                `json:"mem"`
	State           map[string]json.RawMessage `json:"state,omitempty"`
	Counters        map[string]int64           `json:"counters,omitempty"`
	Gauges          map[string]int64           `json:"gauges,omitempty"`
}

// Timeline merges every endpoint's ring and exemplars into one
// chronological (sequence-ordered) request list, deduplicated — an
// exemplar that is still in its ring appears once.
func (d *Dump) Timeline() []Record {
	seen := map[int64]bool{}
	var out []Record
	for _, ed := range d.Endpoints {
		for _, lists := range [2][]Record{ed.Records, ed.Slowest} {
			for _, rec := range lists {
				if seen[rec.Seq] {
					continue
				}
				seen[rec.Seq] = true
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// goroutineStackCap bounds the all-goroutine stack capture; a dump is
// evidence, not a core file.
const goroutineStackCap = 1 << 20

// dump builds, retains and (when configured) writes one snapshot. It
// runs on its own goroutine, serialized so concurrent triggers cannot
// interleave file writes.
func (r *Recorder) dump(reason, detail string) {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()

	seq := r.dumpSeq.Add(1)
	stack := make([]byte, goroutineStackCap)
	stack = stack[:runtime.Stack(stack, true)]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	d := &Dump{
		Schema:          Schema,
		Seq:             seq,
		Time:            time.Now().UTC(),
		Reason:          reason,
		Detail:          detail,
		DroppedTriggers: r.dropped.Value(),
		Endpoints:       r.ringSnapshots(),
		NumGoroutine:    runtime.NumGoroutine(),
		Goroutines:      string(stack),
		Mem: MemSnapshot{
			HeapAllocBytes:  ms.HeapAlloc,
			HeapObjects:     ms.HeapObjects,
			TotalAllocBytes: ms.TotalAlloc,
			SysBytes:        ms.Sys,
			NumGC:           ms.NumGC,
			PauseTotalNS:    ms.PauseTotalNs,
		},
		State: r.stateSnapshots(),
	}
	snap := obs.Default.Snapshot()
	d.Counters, d.Gauges = snap.Counters, snap.Gauges

	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil { // a state provider returned something unmarshalable
		obs.Errorf("flight: marshaling dump %d (%s): %v", seq, reason, err)
		r.failed.Add(1)
		return
	}
	blob = append(blob, '\n')
	name := fmt.Sprintf("flight-%06d-%s.json", seq, reason)

	r.lastMu.Lock()
	r.last, r.lastName = blob, name
	r.lastMu.Unlock()

	if r.cfg.Dir != "" {
		if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
			obs.Errorf("flight: creating dump dir: %v", err)
			r.failed.Add(1)
			return
		}
		if err := os.WriteFile(filepath.Join(r.cfg.Dir, name), blob, 0o644); err != nil {
			obs.Errorf("flight: writing dump %s: %v", name, err)
			r.failed.Add(1)
			return
		}
	}
	r.written.Add(1)
}

func (r *Recorder) stateSnapshots() map[string]json.RawMessage {
	r.stateMu.Lock()
	entries := append([]stateEntry(nil), r.state...)
	r.stateMu.Unlock()
	if len(entries) == 0 {
		return nil
	}
	out := make(map[string]json.RawMessage, len(entries))
	for _, e := range entries {
		blob, err := json.Marshal(e.fn())
		if err != nil {
			blob, _ = json.Marshal(map[string]string{"error": err.Error()})
		}
		out[e.name] = blob
	}
	return out
}

// Latest returns the most recent dump's bytes and name, or ok=false
// when none has fired yet.
func (r *Recorder) Latest() (blob []byte, name string, ok bool) {
	if r == nil {
		return nil, "", false
	}
	r.lastMu.RLock()
	defer r.lastMu.RUnlock()
	if r.last == nil {
		return nil, "", false
	}
	return r.last, r.lastName, true
}

// FormatError reports a dump that could not be decoded: truncated,
// corrupt, or the wrong schema version. It is the typed contract both
// slmsfr and /debug/flight surface instead of panicking on bad input.
type FormatError struct {
	Path   string // "" when decoding bytes with no file origin
	Reason string
	Err    error
}

func (e *FormatError) Error() string {
	msg := "flight dump"
	if e.Path != "" {
		msg += " " + e.Path
	}
	msg += ": " + e.Reason
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *FormatError) Unwrap() error { return e.Err }

// Decode parses and validates one flightdump/v1 blob. Any failure —
// truncation, corruption, schema drift — is a *FormatError, never a
// panic.
func Decode(data []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, &FormatError{Reason: "not valid JSON", Err: err}
	}
	if d.Schema != Schema {
		return nil, &FormatError{Reason: fmt.Sprintf("schema %q, want %q", d.Schema, Schema)}
	}
	if d.Reason == "" {
		return nil, &FormatError{Reason: "missing trigger reason"}
	}
	return &d, nil
}

// DecodeFile reads and decodes one dump file, stamping the path into
// any decode error.
func DecodeFile(path string) (*Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &FormatError{Path: path, Reason: "unreadable", Err: err}
	}
	d, err := Decode(data)
	if err != nil {
		err.(*FormatError).Path = path
		return nil, err
	}
	return d, nil
}

// spanNoteCap bounds one record's span summary; a heavily parallel
// request can have hundreds of per-loop spans and the ring keeps
// summaries, not traces.
const spanNoteCap = 64

// SpanTree summarizes the span tree rooted at root: creation order,
// depth from the parent chain, durations in microseconds. It reads that
// tree alone, so a capture costs the same however many trees the tracer
// holds. Returns nil when tracing is off (root nil) — the caller
// synthesizes a one-note summary so captured requests always carry one.
func SpanTree(root *obs.Span) []SpanNote {
	spans := root.Tree()
	if spans == nil {
		return nil
	}
	depth := make(map[int64]int, len(spans))
	notes := make([]SpanNote, 0, min(len(spans), spanNoteCap))
	for _, sp := range spans {
		d := 0
		if sp.Parent != 0 {
			d = depth[sp.Parent] + 1
		}
		depth[sp.ID] = d
		if len(notes) < spanNoteCap {
			notes = append(notes, SpanNote{Name: sp.Name, Depth: d, DurUS: sp.Dur.Microseconds()})
		}
	}
	return notes
}
