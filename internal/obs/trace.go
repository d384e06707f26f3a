package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Trace export formats.
const (
	// FormatChrome is the Chrome trace_event JSON format: load the file
	// in chrome://tracing (or https://ui.perfetto.dev). Each span tree
	// is rendered as one track (tid = the tree's root span), so a bench
	// run shows one lane per kernel measurement.
	FormatChrome = "chrome"
	// FormatJSONL is one JSON object per line: spans ({"type":"span"})
	// in creation order, each followed by the decision records made
	// under it ({"type":"decision"}, naming the span, its root and its
	// request ID). Suited to jq and log shippers.
	FormatJSONL = "jsonl"
)

// WriteTrace serializes the tracer's span trees, decision records
// included, to w in the given format (FormatChrome or FormatJSONL).
func (t *Tracer) WriteTrace(w io.Writer, format string) error {
	switch format {
	case FormatChrome, "":
		return t.writeChrome(w)
	case FormatJSONL:
		return t.writeJSONL(w)
	default:
		return fmt.Errorf("obs: unknown trace format %q (want %q or %q)", format, FormatChrome, FormatJSONL)
	}
}

// spanJSON is the JSONL wire form of a span.
type spanJSON struct {
	Type     string         `json:"type"`
	ID       int64          `json:"id"`
	Parent   int64          `json:"parent,omitempty"`
	Root     int64          `json:"root"`
	Req      string         `json:"request_id,omitempty"`
	Name     string         `json:"name"`
	Start    string         `json:"start"`
	Duration float64        `json:"us"` // microseconds
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// decisionJSON is the JSONL wire form of a decision record: the record
// and the span it is an event of.
type decisionJSON struct {
	Type string `json:"type"`
	Span int64  `json:"span"`
	Root int64  `json:"root"`
	Req  string `json:"request_id,omitempty"`
	Decision
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

func (s *Span) duration() time.Duration {
	if s.ended.Load() {
		return s.Dur
	}
	return time.Since(s.Start)
}

func (t *Tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		rec := spanJSON{
			Type: "span", ID: s.ID, Parent: s.Parent, Root: s.RootID,
			Req:      s.Req,
			Name:     s.Name,
			Start:    s.Start.Format(time.RFC3339Nano),
			Duration: float64(s.duration()) / float64(time.Microsecond),
			Attrs:    attrMap(s.Attrs()),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		for _, d := range s.Decisions() {
			if err := enc.Encode(decisionJSON{"decision", s.ID, s.RootID, s.Req, d}); err != nil {
				return err
			}
		}
	}
	return nil
}

// chromeEvent is one trace_event entry. Complete spans use ph="X",
// instant decision records ph="i" (on their span's lane, at its end),
// track names ph="M".
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds since trace start
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func (t *Tracer) writeChrome(w io.Writer) error {
	spans := t.Spans()
	events := make([]chromeEvent, 0, len(spans)+8)

	// Name each track after its root span so chrome://tracing shows one
	// labelled lane per span tree (per kernel in a bench run).
	for _, s := range spans {
		if s.Parent == 0 {
			events = append(events, chromeEvent{
				Name: "thread_name", Phase: "M", PID: 1, TID: s.RootID,
				Args: map[string]any{"name": s.Name},
			})
		}
	}
	for _, s := range spans {
		ts := float64(s.Start.Sub(t.start)) / float64(time.Microsecond)
		dur := float64(s.duration()) / float64(time.Microsecond)
		events = append(events, chromeEvent{
			Name: s.Name, Phase: "X", TS: ts, Dur: dur,
			PID: 1, TID: s.RootID,
			Args: attrMap(s.Attrs()),
		})
		for _, d := range s.Decisions() {
			args := map[string]any{"code": d.Code, "verdict": d.Verdict, "reason": d.Reason}
			for k, v := range d.Attrs {
				args[k] = v
			}
			events = append(events, chromeEvent{
				Name: d.Code, Phase: "i", TS: ts + dur,
				PID: 1, TID: s.RootID, Scope: "t",
				Args: args,
			})
		}
	}
	// Stable output: chrome sorts by ts anyway; we sort so identical
	// traces serialize identically.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TID != events[j].TID {
			return events[i].TID < events[j].TID
		}
		return events[i].TS < events[j].TS
	})
	blob, err := json.MarshalIndent(map[string]any{"traceEvents": events}, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}
