package server

import (
	"io"
	"strconv"
	"sync"

	"slms/internal/obs/flight"
)

// The access log: one structured line per finished request, on a
// dedicated destination (slmsd's -access-log flag) so request traffic
// never mixes into the "slms: " diagnostic stream. The line is rendered
// from the request's one record (flight.Obs) into one shared buffer
// under one mutex and emitted with a single Write, so concurrent
// request completions cannot interleave mid-line no matter the
// destination, and rendering allocates nothing on either request path:
//
//	access endpoint=compile status=200 req=<id> fp=<fingerprint>
//	       cache=hit|miss deadline_ms=<remaining|-1> dur_us=<n>
//
// with "-" for fields a request never reached (e.g. fp on a 405).
type accessLog struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// newAccessLog builds the log; a nil writer disables it (every line
// call becomes a cheap early return).
func newAccessLog(w io.Writer) *accessLog {
	return &accessLog{w: w, buf: make([]byte, 0, 256)}
}

// line renders and writes one request's access line from its record.
func (al *accessLog) line(endpoint string, o *flight.Obs) {
	if al == nil || al.w == nil {
		return
	}
	al.mu.Lock()
	defer al.mu.Unlock()
	b := append(al.buf[:0], "access endpoint="...)
	b = append(b, endpoint...)
	b = append(b, " status="...)
	b = strconv.AppendInt(b, int64(o.Status), 10)
	b = append(b, " req="...)
	b = appendField(b, o.RequestID)
	b = append(b, " fp="...)
	b = appendField(b, o.Fingerprint)
	b = append(b, " cache="...)
	b = appendField(b, o.Cache)
	b = append(b, " deadline_ms="...)
	b = strconv.AppendInt(b, o.DeadlineMS, 10)
	b = append(b, " dur_us="...)
	b = strconv.AppendInt(b, o.Dur.Microseconds(), 10)
	b = append(b, '\n')
	al.buf = b
	al.w.Write(b)
}

func appendField(b []byte, s string) []byte {
	if s == "" {
		return append(b, '-')
	}
	return append(b, s...)
}
