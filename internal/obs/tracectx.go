package obs

// Request correlation: W3C trace-context parsing plus the context
// plumbing that carries a request's span tree, and with it the request
// ID (see RootRequest), from the HTTP edge through admission, caches,
// the per-loop transform and the simulator. The rule mirrors the rest
// of this package: everything here must be allocation-free on the paths
// servers keep hot (parsing a traceparent returns a substring of the
// input; context reads are plain Value lookups), and every helper
// tolerates zeros — an empty request ID, a nil span, a background
// context.

import (
	"context"
	"sync/atomic"
)

// traceparentLen is the length of a version-00 W3C traceparent value:
// "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>".
const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// ParseTraceparent validates a W3C traceparent header value and returns
// its trace-id — the request ID the service propagates. The returned
// string is a substring of the input (no allocation). ok is false for
// anything malformed: wrong length or separators, non-lowercase-hex
// fields, the forbidden version ff, or all-zero trace/parent ids.
// Callers treat a malformed value as absent and mint a fresh ID — a bad
// traceparent must never fail a request.
func ParseTraceparent(tp string) (traceID string, ok bool) {
	if len(tp) < traceparentLen {
		return "", false
	}
	if tp[2] != '-' || tp[35] != '-' || tp[52] != '-' {
		return "", false
	}
	// Version: two lowercase hex digits, ff forbidden. Versions above 00
	// may append "-extra" fields; anything else trailing is malformed.
	if !isHex(tp[0:2]) || tp[0:2] == "ff" {
		return "", false
	}
	if len(tp) > traceparentLen && (tp[0:2] == "00" || tp[traceparentLen] != '-') {
		return "", false
	}
	id, parent, flags := tp[3:35], tp[36:52], tp[53:55]
	if !isHex(id) || !isHex(parent) || !isHex(flags) {
		return "", false
	}
	if allZero(id) || allZero(parent) {
		return "", false
	}
	return id, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// spanKey keys the request's span in a context.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sp, so layers that only see a
// context (HTTP handlers behind singleflight, worker pools) can attach
// children to the request's span tree. A nil sp returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the span carried by ctx, or nil — which is itself a
// valid no-op span, so callers chain without checking.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// procReqID is the process-level request ID: CLIs set it from
// -request-id so every span tree of a one-shot run, and with it every
// decision record, carries the caller's correlation ID without context
// plumbing through flag parsing.
var procReqID atomic.Value // string

// SetRequestID sets the process-level request ID stamped on span trees
// that have no request-scoped ID of their own.
// Accepts either a bare ID or a full W3C traceparent value (the
// trace-id is extracted).
func SetRequestID(id string) {
	if tid, ok := ParseTraceparent(id); ok {
		id = tid
	}
	procReqID.Store(id)
}

// RequestID returns the process-level request ID ("" unless set).
func RequestID() string {
	id, _ := procReqID.Load().(string)
	return id
}
