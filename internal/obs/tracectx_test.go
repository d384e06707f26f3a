package obs

import (
	"context"
	"strings"
	"testing"
)

const validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// TestParseTraceparent pins the W3C trace-context validation table: a
// malformed value is reported as absent (never an error), a valid one
// yields its trace-id without allocating.
func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		name   string
		in     string
		wantID string
		wantOK bool
	}{
		{"valid", validTraceparent, "4bf92f3577b34da6a3ce929d0e0e4736", true},
		{"valid_flags_zero", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", "4bf92f3577b34da6a3ce929d0e0e4736", true},
		{"valid_future_version", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "4bf92f3577b34da6a3ce929d0e0e4736", true},
		{"valid_future_version_suffix", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", "4bf92f3577b34da6a3ce929d0e0e4736", true},
		{"empty", "", "", false},
		{"short", "00-abc", "", false},
		{"short_trace_id", "00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01", "", false},
		{"bad_version_ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", false},
		{"bad_version_nonhex", "0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", false},
		{"uppercase_hex", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", "", false},
		{"nonhex_trace_id", "00-4bf92g3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", false},
		{"nonhex_parent_id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902z7-01", "", false},
		{"nonhex_flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g", "", false},
		{"zero_trace_id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", "", false},
		{"zero_parent_id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", "", false},
		{"bad_separator_1", "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", false},
		{"bad_separator_2", "00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01", "", false},
		{"bad_separator_3", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7_01", "", false},
		{"version00_trailing", validTraceparent + "-extra", "", false},
		{"version00_trailing_junk", validTraceparent + "x", "", false},
		{"whitespace", " " + validTraceparent, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id, ok := ParseTraceparent(tc.in)
			if ok != tc.wantOK || id != tc.wantID {
				t.Errorf("ParseTraceparent(%q) = (%q, %v), want (%q, %v)",
					tc.in, id, ok, tc.wantID, tc.wantOK)
			}
		})
	}
}

// TestParseTraceparentZeroAlloc pins the parser to the serving fast
// path's allocation budget: none.
func TestParseTraceparentZeroAlloc(t *testing.T) {
	tp := validTraceparent
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := ParseTraceparent(tp); !ok {
			t.Fatal("valid traceparent rejected")
		}
	})
	if allocs != 0 {
		t.Errorf("ParseTraceparent allocates %.1f objects per call, want 0", allocs)
	}
}

// FuzzParseTraceparent asserts the parser's only contract under
// arbitrary input: it never panics, and whatever trace-id it accepts is
// exactly 32 lowercase hex digits (never all zeros).
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		validTraceparent,
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"",
		"00-abc",
		"traceparent",
		strings.Repeat("-", 60),
		strings.Repeat("0", 55),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tp string) {
		id, ok := ParseTraceparent(tp)
		if !ok {
			if id != "" {
				t.Fatalf("rejected input returned non-empty id %q", id)
			}
			return
		}
		if len(id) != 32 || !isHex(id) || allZero(id) {
			t.Fatalf("accepted id %q is not 32 non-zero lowercase hex digits", id)
		}
		if !strings.Contains(tp, id) {
			t.Fatalf("id %q is not a substring of input %q", id, tp)
		}
	})
}

// TestRequestIDContext covers the request-scoped span tree: RootRequest
// stamps the root, the context carries the root, children inherit the
// ID, and decisions recorded under the tree carry the same ID.
func TestRequestIDContext(t *testing.T) {
	tr := NewTracer()
	Enable(tr)
	defer Disable()

	sp := RootRequest("test.root", "req-42")
	if sp == nil {
		t.Fatal("RootRequest returned nil span with tracing on")
	}
	defer sp.End()
	if got := sp.RequestID(); got != "req-42" {
		t.Errorf("root span request ID = %q, want req-42", got)
	}
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFrom(ctx); got != sp {
		t.Errorf("SpanFrom(ctx) = %v, want the root span", got)
	}
	child := sp.Child("child")
	if got := child.RequestID(); got != "req-42" {
		t.Errorf("child span request ID = %q, want req-42", got)
	}
	child.End()

	RecordDecision(child, Decision{Code: DecApplied, Verdict: VerdictAccept, Loop: "1:1"})
	decs := tr.Decisions()
	if len(decs) != 1 || decs[0].RequestID != "req-42" {
		t.Errorf("decision records = %+v, want one stamped req-42", decs)
	}
}

// TestProcessRequestID covers the CLI fallback: SetRequestID stamps
// spans and decisions that have no request-scoped ID, and accepts a
// full traceparent.
func TestProcessRequestID(t *testing.T) {
	SetRequestID(validTraceparent)
	defer SetRequestID("")
	if got := RequestID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("RequestID = %q, want the traceparent's trace-id", got)
	}

	tr := NewTracer()
	Enable(tr)
	defer Disable()
	sp := Root("cli.run")
	if got := sp.RequestID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("span request ID = %q, want the process ID", got)
	}
	RecordDecision(nil, Decision{Code: DecApplied, Verdict: VerdictAccept, Loop: "1:1"})
	decs := tr.Decisions()
	if len(decs) != 1 || decs[0].RequestID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("decision = %+v, want the process request ID", decs)
	}
	sp.End()
}

// TestSpanNilRequestHelpers pins the nil-safety contract for the new
// helpers, matching the rest of the package.
func TestSpanNilRequestHelpers(t *testing.T) {
	var sp *Span
	if got := sp.RequestID(); got != "" {
		t.Errorf("nil span RequestID = %q, want empty", got)
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if got := SpanFrom(ctx); got != nil {
		t.Errorf("SpanFrom after nil ContextWithSpan = %v, want nil", got)
	}
	if got := SpanFrom(nil); got != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Errorf("SpanFrom(nil) = %v, want nil", got)
	}
}
