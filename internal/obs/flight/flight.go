// Package flight is slmsd's black-box flight recorder: an always-on,
// fixed-memory capture of recent requests that turns "it 5xx'd at 2am"
// into a self-contained, replayable postmortem artifact.
//
// The recorder keeps one ring buffer per endpoint of the last N
// finished requests — access-line fields, request ID, fingerprint, a
// span-tree summary, the SLMS2xx/3xx decision records, and the request
// body up to a size cap — plus a top-K slowest-request exemplar heap
// per endpoint, so the interesting outliers survive even when the ring
// has lapped them. Every slot is preallocated: recording copies into
// fixed buffers under a short mutex and never allocates, which is what
// lets the server's zero-allocation cached path record every hit and
// stay 0 allocs/op. The record a ring takes (Obs) is slmsd's one record
// of a request: the server fills it once per request and derives the
// access line, the SLO window and the endpoint metrics from it too.
//
// A trigger engine (trigger.go) snapshots the rings plus goroutine
// stacks, memstats, SLO window state and the metrics registry into a
// versioned flightdump/v1 JSON (dump.go) on anomalies — 5xx, deadline
// expiry, panic, SLO budget breach, SIGQUIT, drain — rate-limited to
// one dump per cooldown so an error storm costs one file, not one per
// failure. Dumps are written to a directory and served read-only at
// /debug/flight (handler.go); cmd/slmsfr pretty-prints and replays
// them.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slms/internal/obs"
)

// Config tunes the recorder; zero values take the documented defaults.
type Config struct {
	// RingSize is the per-endpoint ring capacity in requests
	// (default 64).
	RingSize int
	// BodyCap bounds how many request-body bytes one slot retains
	// (default 4096); longer bodies are kept truncated and marked, and
	// replay skips them.
	BodyCap int
	// TopK sizes the per-endpoint slowest-request exemplar heap
	// (default 8).
	TopK int
	// Cooldown rate-limits dumps: after one fires, further non-forced
	// triggers are counted and dropped until it elapses (default 30s).
	Cooldown time.Duration
	// Dir receives flightdump/v1 files; empty keeps dumps in memory
	// only (the latest is still served at /debug/flight/latest).
	Dir string
	// Disabled turns the recorder off entirely: rings are nil,
	// triggers no-op.
	Disabled bool
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	if c.BodyCap <= 0 {
		c.BodyCap = 4096
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// reqIDCap fits the longest request ID the server emits: a 32-hex
// traceparent trace-id or a minted "r%08d".
const reqIDCap = 64

// SpanNote is one span of a captured request's tree summary:
// creation-ordered, depth-encoded, durations only (attrs stay in the
// full trace export — the recorder is fixed-memory).
type SpanNote struct {
	Name  string `json:"name"`
	Depth int    `json:"depth,omitempty"`
	DurUS int64  `json:"dur_us"`
}

// DecisionNote is one SLMS decision or diagnostic captured with a
// request: the SLMS2xx records of a 200 response, or the SLMS4xx
// diagnostics of an error envelope.
type DecisionNote struct {
	Loop    string `json:"loop,omitempty"`
	Code    string `json:"code"`
	Verdict string `json:"verdict,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// Obs is the one record of a finished request. slmsd fills one per
// request, on its cached fast path and its full path alike, and derives
// every per-request output from it: the ring slot, the access line, the
// SLO window and the endpoint's metrics. DeadlineMS is the deadline
// remaining at the finish, -1 for a request that never had one. The
// recorder copies the ID and body bytes out; they may alias pooled
// memory that is recycled as soon as Record returns.
type Obs struct {
	Status      int
	RequestID   string
	Fingerprint string
	Cache       string
	DeadlineMS  int64
	Dur         time.Duration
	ErrCode     string
	Body        []byte
	Truncated   bool
	Spans       []SpanNote
	Decisions   []DecisionNote
}

// slot is one preallocated ring (or exemplar) entry. set copies the
// request ID and body into the slot's own buffers, so a slot never
// retains pooled server memory.
type slot struct {
	seq        int64
	unixNS     int64
	status     int
	deadlineMS int64
	durUS      int64
	fp         string
	cache      string
	errCode    string
	reqID      []byte
	body       []byte
	bodyLen    int
	truncated  bool
	spans      []SpanNote
	decisions  []DecisionNote
}

func (sl *slot) set(o *Obs, seq, unixNS int64) {
	sl.seq = seq
	sl.unixNS = unixNS
	sl.status = o.Status
	sl.deadlineMS = o.DeadlineMS
	sl.durUS = o.Dur.Microseconds()
	sl.fp = o.Fingerprint
	sl.cache = o.Cache
	sl.errCode = o.ErrCode
	sl.reqID = append(sl.reqID[:0], o.RequestID...)
	body, truncated := o.Body, o.Truncated
	if len(body) > cap(sl.body) {
		body, truncated = body[:cap(sl.body)], true
	}
	sl.body = append(sl.body[:0], body...)
	sl.bodyLen = len(o.Body)
	sl.truncated = truncated
	sl.spans = o.Spans
	sl.decisions = o.Decisions
}

// Ring is one endpoint's capture state: the request ring plus the
// slowest-request exemplar heap. All methods are safe on a nil
// receiver (a disabled recorder hands out nil rings), mirroring the
// obs.Span convention, so call sites never test whether capture is on.
type Ring struct {
	rec      *Recorder
	endpoint string

	mu    sync.Mutex
	slots []slot
	n     int // filled slots
	next  int // next write index

	// Exemplars: a min-heap on durUS (ex[0] = fastest of the kept),
	// so a new request displaces the cheapest exemplar in O(log k).
	// exMin caches ex[0].durUS once the heap fills (-1 before), letting
	// the common not-an-outlier case skip the lock with one atomic load.
	exMu  sync.Mutex
	ex    []slot
	exLen int
	exMin atomic.Int64
}

func newRing(rec *Recorder, endpoint string) *Ring {
	cfg := rec.cfg
	r := &Ring{rec: rec, endpoint: endpoint,
		slots: make([]slot, cfg.RingSize), ex: make([]slot, cfg.TopK)}
	for i := range r.slots {
		r.slots[i].reqID = make([]byte, 0, reqIDCap)
		r.slots[i].body = make([]byte, 0, cfg.BodyCap)
	}
	for i := range r.ex {
		r.ex[i].reqID = make([]byte, 0, reqIDCap)
		r.ex[i].body = make([]byte, 0, cfg.BodyCap)
	}
	r.exMin.Store(-1)
	return r
}

// Record captures one finished request. It copies every byte into the
// slot's preallocated buffers and allocates nothing, so the server's
// 0 allocs/op cached path records every hit; o may alias pooled memory
// that is recycled after Record returns.
func (r *Ring) Record(o *Obs) {
	if r == nil {
		return
	}
	seq, unixNS := r.rec.seq.Add(1), time.Now().UnixNano()
	r.mu.Lock()
	r.slots[r.next].set(o, seq, unixNS)
	r.next = (r.next + 1) % len(r.slots)
	if r.n < len(r.slots) {
		r.n++
	}
	r.mu.Unlock()
	r.offer(o, seq, unixNS)
	r.rec.records.Add(1)
}

// offer inserts the record into the exemplar heap when it is slower
// than the current floor. The pre-check reads one atomic: until the
// heap fills, exMin is -1 and everything is admitted.
func (r *Ring) offer(o *Obs, seq, unixNS int64) {
	durUS := o.Dur.Microseconds()
	if len(r.ex) == 0 || durUS <= r.exMin.Load() {
		return
	}
	r.exMu.Lock()
	switch {
	case r.exLen < len(r.ex):
		r.ex[r.exLen].set(o, seq, unixNS)
		r.siftUp(r.exLen)
		r.exLen++
		if r.exLen == len(r.ex) {
			r.exMin.Store(r.ex[0].durUS)
		}
	case durUS > r.ex[0].durUS:
		r.ex[0].set(o, seq, unixNS)
		r.siftDown(0)
		r.exMin.Store(r.ex[0].durUS)
	}
	r.exMu.Unlock()
}

func (r *Ring) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if r.ex[p].durUS <= r.ex[i].durUS {
			return
		}
		r.ex[p], r.ex[i] = r.ex[i], r.ex[p]
		i = p
	}
}

func (r *Ring) siftDown(i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < r.exLen && r.ex[c].durUS < r.ex[least].durUS {
				least = c
			}
		}
		if least == i {
			return
		}
		r.ex[i], r.ex[least] = r.ex[least], r.ex[i]
		i = least
	}
}

// Len reports how many requests the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// snapshot renders the ring chronologically (oldest first) and the
// exemplars slowest-first into dump Records. This is the dump path; it
// allocates freely.
func (r *Ring) snapshot() EndpointDump {
	ed := EndpointDump{Endpoint: r.endpoint}
	r.mu.Lock()
	ed.Records = make([]Record, 0, r.n)
	start := (r.next - r.n + len(r.slots)) % len(r.slots)
	for i := 0; i < r.n; i++ {
		ed.Records = append(ed.Records, r.slots[(start+i)%len(r.slots)].render(r.endpoint))
	}
	r.mu.Unlock()
	r.exMu.Lock()
	ed.Slowest = make([]Record, 0, r.exLen)
	for i := 0; i < r.exLen; i++ {
		ed.Slowest = append(ed.Slowest, r.ex[i].render(r.endpoint))
	}
	r.exMu.Unlock()
	sort.Slice(ed.Slowest, func(i, j int) bool { return ed.Slowest[i].DurUS > ed.Slowest[j].DurUS })
	return ed
}

func (sl *slot) render(endpoint string) Record {
	return Record{
		Seq:         sl.seq,
		TimeUnixNS:  sl.unixNS,
		Endpoint:    endpoint,
		Status:      sl.status,
		RequestID:   string(sl.reqID),
		Fingerprint: sl.fp,
		Cache:       sl.cache,
		DeadlineMS:  sl.deadlineMS,
		DurUS:       sl.durUS,
		ErrCode:     sl.errCode,
		Body:        string(sl.body),
		BodyLen:     sl.bodyLen,
		Truncated:   sl.truncated,
		Spans:       sl.spans,
		Decisions:   sl.decisions,
	}
}

// Recorder owns the per-endpoint rings, the trigger engine and the
// dump sink. All methods are safe on a nil receiver.
type Recorder struct {
	cfg Config

	mu    sync.Mutex
	rings map[string]*Ring
	order []string

	seq     atomic.Int64 // record sequence, global so dumps interleave correctly
	dumpSeq atomic.Int64
	lastNS  atomic.Int64 // unixnano of the last accepted trigger

	stateMu sync.Mutex
	state   []stateEntry

	wg     sync.WaitGroup // outstanding async dumps
	dumpMu sync.Mutex     // serializes dump builds

	lastMu   sync.RWMutex
	last     []byte // most recent dump, for /debug/flight/latest
	lastName string

	records *obs.Counter
	written *obs.Counter
	dropped *obs.Counter
	failed  *obs.Counter
}

type stateEntry struct {
	name string
	fn   func() any
}

// New builds a recorder. A Disabled config yields a recorder whose
// rings are nil and whose triggers no-op, so wiring stays unconditional.
func New(cfg Config) *Recorder {
	r := &Recorder{
		cfg:     cfg.withDefaults(),
		rings:   map[string]*Ring{},
		records: obs.CounterName("flight.records"),
		written: obs.CounterName("flight.dumps.written"),
		dropped: obs.CounterName("flight.triggers.dropped"),
		failed:  obs.CounterName("flight.dumps.failed"),
	}
	r.cfg.Disabled = cfg.Disabled
	return r
}

// Enabled reports whether the recorder captures anything.
func (r *Recorder) Enabled() bool { return r != nil && !r.cfg.Disabled }

// Dir returns the configured dump directory ("" = memory only).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.cfg.Dir
}

// Endpoint returns (registering if needed) the named endpoint's ring,
// or nil when the recorder is disabled. The server hoists the ring per
// endpoint at registration, so the hot path never takes this lock.
func (r *Recorder) Endpoint(name string) *Ring {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ring, ok := r.rings[name]
	if !ok {
		ring = newRing(r, name)
		r.rings[name] = ring
		r.order = append(r.order, name)
		sort.Strings(r.order)
	}
	return ring
}

// AddState registers a named snapshot provider whose result is
// embedded in every dump (e.g. server stats, SLO windows). Providers
// run on the dump goroutine and must be safe to call at any time.
func (r *Recorder) AddState(name string, fn func() any) {
	if r == nil {
		return
	}
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.state = append(r.state, stateEntry{name, fn})
}

// ringSnapshots renders every ring in registration (sorted) order.
func (r *Recorder) ringSnapshots() []EndpointDump {
	r.mu.Lock()
	rings := make([]*Ring, 0, len(r.order))
	for _, n := range r.order {
		rings = append(rings, r.rings[n])
	}
	r.mu.Unlock()
	out := make([]EndpointDump, 0, len(rings))
	for _, ring := range rings {
		out = append(out, ring.snapshot())
	}
	return out
}
