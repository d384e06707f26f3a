package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/obs/flight"
	"slms/internal/pipeline"
	"slms/internal/server"
	"slms/internal/source"
)

const (
	epSchedule = "/v1/schedule"
	epProfile  = "/v1/profile"
	epCompile  = "/v1/compile"
	epExplain  = "/v1/explain"
)

// serveCell is one (kernel, endpoint, target) combination of the
// serve_mixed stream; compile and explain take no target.
type serveCell struct {
	kernel            int
	endpoint          string
	machine, compiler string
}

var (
	serveMachines  = []string{"ia64", "pentium", "power4", "arm7"}
	serveCompilers = []string{"weak", "strong"}
)

// simRejects are the kernels with an array the bench harness sizes when
// it seeds the inputs (idamax's dx, kernel24's x): sent over HTTP the
// array has no extent, and the simulating endpoints answer 422. They
// still go to /v1/compile and /v1/explain.
var simRejects = map[string]bool{"idamax": true, "idamax2": true, "kernel24": true}

// serveCells lists every combination the stream draws fresh requests
// from, each endpoint only with programs it accepts. Per kernel, every
// target appears once on each simulating endpoint, and /v1/compile and
// /v1/explain (which take no target) appear as often, so a round over
// the cells weights the four endpoints alike.
func serveCells(kernels []bench.Kernel) []serveCell {
	var cells []serveCell
	for i, k := range kernels {
		for _, m := range serveMachines {
			for _, c := range serveCompilers {
				cells = append(cells, serveCell{kernel: i, endpoint: epCompile}, serveCell{kernel: i, endpoint: epExplain})
				if !simRejects[k.Name] {
					cells = append(cells, serveCell{i, epSchedule, m, c}, serveCell{i, epProfile, m, c})
				}
			}
		}
	}
	return cells
}

// Request classes.
const (
	classFresh = iota
	classRecent
	classEvicted
	numClasses
)

var classNames = [numClasses]string{"fresh", "recent", "evicted"}

// The stream's mix. No recorded slmsd access log or flight dump exists
// to derive it from, so every share below is an assumption, chosen for
// the result it produces, not for how real callers behave:
//
//   - Fresh requests come at a fixed pace: one round of the cells per
//     freshRound of timed phase, so every cell misses every cache once
//     per 20 seconds. Every run then does the same cold work, and the
//     cache growth it leaves in peak_rss_mb follows the run's length,
//     not how fast the host or the program answers.
//   - The other requests are repeats, in blocks of repeatBlock with
//     repeatEvicted evicted repeats each. Evicted repeats parse again
//     and find the pipeline caches warm; at this share they take about
//     half of the clients' time, so cpu_ms_per_op weighs that path as
//     much as the rest.
//   - The remaining repeats are recent: well over half of all requests,
//     so op_p50_ms lies inside that class (the response-cache fast
//     path) instead of between two classes.
const (
	freshRound    = 20 * time.Second
	repeatBlock   = 20
	repeatEvicted = 3
)

// LRU bounds the stream respects. slmsd's response cache holds 512
// entries and only a 200 reply inserts one (fresh requests and evicted
// repeats). A recent repeat resends a body inserted between recentMin
// and recentMax insertions ago: old enough that its first reply has
// arrived (so it takes the cached fast path, not the singleflight wait),
// young enough to still be cached. An evicted repeat resends a body not
// touched for evictAge insertions, well past the 512 that evict it.
const (
	lruEntries = 512
	recentMin  = 64
	recentMax  = 256
	evictAge   = lruEntries + 128
)

// pickTries bounds the draws for a repeat: the recent window holds
// mostly bodies it allows, and most cells hold an evictable body, so a
// miss on every draw almost never turns a repeat slot fresh.
const pickTries = 64

// body is one distinct request of the stream.
type body struct {
	cell    int
	variant uint64
	insAt   int // insertion index of its latest insertion into the LRU
	touched int // insertion count when it was last inserted or hit
	// firstRound marks the fresh requests of the stream's first round
	// over the cells; their replies are kept for the output checks.
	firstRound bool
	first      [sha256.Size]byte // digest of the first reply
	hasFirst   bool
	// An explain body also keeps its first reply's digest with the
	// named recurrences masked, and the recurrences it named.
	firstMasked [sha256.Size]byte
	firstClaims string
}

// streamReq is one request of the stream.
type streamReq struct {
	pos   int
	class int
	b     *body
}

// generator draws the serve_mixed request stream from a seed. Given
// where the fresh requests fall, the stream depends only on the seed:
// the class of each repeat comes from a seeded shuffle of the repeat
// block pattern, fresh requests and evicted repeats walk the cells in
// cellOrder rounds, and recent repeats pick seeded bodies among those
// the LRU bounds allow (a repeat with no such body becomes fresh).
// Every block holds the same number of each repeat class whatever the
// seed, so every seed sees the same mix.
type generator struct {
	rng        *rand.Rand
	kernels    []bench.Kernel
	cells      []serveCell
	freshOrder *cellOrder // cells of the fresh requests
	evictOrder *cellOrder // cells of the evicted repeats
	pos        int
	repeats    int       // repeat slots drawn so far
	ins        int       // LRU insertions so far
	byIns      []*body   // body inserted at each insertion index
	byCell     [][]*body // every distinct body of each cell
	block      []int
	prefix     uint64
}

func newGenerator(seed int64, kernels []bench.Kernel) *generator {
	rng := rand.New(rand.NewSource(seed))
	cells := serveCells(kernels)
	return &generator{
		rng:        rng,
		kernels:    kernels,
		cells:      cells,
		freshOrder: newCellOrder(len(cells), 1, rng),
		evictOrder: newCellOrder(len(cells), 2, rng),
		byCell:     make([][]*body, len(cells)),
		prefix:     rng.Uint64() &^ 0xffffffff,
	}
}

// cellOrder walks the cells round after round. Each round is a
// permutation that is the same for every seed, shuffled by the seed only
// within windows of roundWindow cells, so any stretch of the stream
// holds nearly the same cells whatever the seed: the slowest cells,
// which set op_tail_ms, are sampled alike in every run.
type cellOrder struct {
	canon, rng *rand.Rand
	round      []int
	next       int
	rounds     int // completed rounds
}

const roundWindow = 32

func newCellOrder(n int, canonSeed int64, rng *rand.Rand) *cellOrder {
	o := &cellOrder{canon: rand.New(rand.NewSource(canonSeed)), rng: rng, round: make([]int, n)}
	o.shuffle()
	return o
}

func (o *cellOrder) shuffle() {
	o.round = o.canon.Perm(len(o.round))
	for i := 0; i < len(o.round); i += roundWindow {
		w := o.round[i:min(i+roundWindow, len(o.round))]
		o.rng.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
	}
}

func (o *cellOrder) take() int {
	c := o.round[o.next]
	if o.next++; o.next == len(o.round) {
		o.next, o.rounds = 0, o.rounds+1
		o.shuffle()
	}
	return c
}

// nextReq draws the next request: a fresh one when freshDue, otherwise
// the next repeat of the block pattern.
func (g *generator) nextReq(freshDue bool) streamReq {
	r := streamReq{pos: g.pos, class: classFresh}
	g.pos++
	if !freshDue {
		if g.repeats%repeatBlock == 0 {
			g.block = g.block[:0]
			for i := 0; i < repeatBlock; i++ {
				c := classRecent
				if i < repeatEvicted {
					c = classEvicted
				}
				g.block = append(g.block, c)
			}
			g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		}
		r.class = g.block[g.repeats%repeatBlock]
		g.repeats++
	}
	switch r.class {
	case classRecent:
		r.b = g.pickRecent()
		if r.b != nil {
			r.b.touched = g.ins
		}
	case classEvicted:
		r.b = g.pickEvicted()
		if r.b != nil {
			g.insert(r.b)
		}
	}
	if r.b == nil {
		r.class = classFresh
		r.b = g.fresh()
	}
	return r
}

// pickRecent draws a body whose latest insertion lies between
// recentMin and recentMax insertions ago, or nil after pickTries misses.
func (g *generator) pickRecent() *body {
	window := g.byIns[max(g.ins-recentMax, 0):max(g.ins-recentMin, 0)]
	for try := 0; len(window) > 0 && try < pickTries; try++ {
		if b := window[g.rng.Intn(len(window))]; b.insAt >= g.ins-recentMax && b.insAt < g.ins-recentMin {
			return b
		}
	}
	return nil
}

// pickEvicted draws a body not touched for evictAge insertions from the
// next cells of the evicted order, or nil after pickTries cells without
// one.
func (g *generator) pickEvicted() *body {
	for try := 0; try < pickTries; try++ {
		bs := g.byCell[g.evictOrder.take()]
		if len(bs) == 0 {
			continue
		}
		off := g.rng.Intn(len(bs))
		for j := range bs {
			if b := bs[(off+j)%len(bs)]; b.touched <= g.ins-evictAge {
				return b
			}
		}
	}
	return nil
}

func (g *generator) fresh() *body {
	first := g.freshOrder.rounds == 0
	b := &body{cell: g.freshOrder.take(), variant: g.prefix | uint64(len(g.byIns)), firstRound: first}
	g.byCell[b.cell] = append(g.byCell[b.cell], b)
	g.insert(b)
	return b
}

func (g *generator) insert(b *body) {
	b.insAt, b.touched = g.ins, g.ins
	g.byIns = append(g.byIns, b)
	g.ins++
}

// source is the body's program: its kernel behind a declaration that
// makes the text, and so every cache key, unique to the variant.
func (g *generator) source(b *body) string {
	return fmt.Sprintf("int fresh_%016x = 1;\n%s", b.variant, g.kernels[g.cells[b.cell].kernel].Source)
}

// render is the request body sent for b; repeats render the same bytes.
func (g *generator) render(b *body) []byte {
	c := g.cells[b.cell]
	out, err := json.Marshal(server.Request{Source: g.source(b), Machine: c.machine, Compiler: c.compiler})
	if err != nil {
		panic(err) // a Request of strings always marshals
	}
	return out
}

// slmsd is an in-process slmsd: server.New with slmsd's flag defaults
// (flight recorder on, access log discarded) on a loopback listener,
// and a keep-alive client pool of one connection per client.
type slmsd struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

func startSlmsd(clients int) (*slmsd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		QueueDepth:     64,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
		CacheEntries:   lruEntries,
		MaxBodyBytes:   1 << 20,
		AccessLog:      io.Discard,
		Flight:         flight.Config{Cooldown: 30 * time.Second, RingSize: 64, BodyCap: 4096},
	})
	s := &slmsd{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// post sends one request and reads the whole reply.
func (s *slmsd) post(endpoint string, b []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+endpoint, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

func (s *slmsd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // nothing is in flight once the clients have returned
	_ = s.hs.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
}

// serve is the serve_mixed workload.
type serve struct {
	d       *slmsd
	gen     *generator
	clients int

	mu      sync.Mutex // guards gen, bodies' reply digests, the counters and kept
	fresh   int        // fresh requests of the timed phase
	sent    int
	bad     int
	pending []pendingCheck
	kept    []keptReply

	// claimReplies counts the explain replies by the recurrences they
	// name (claim keys joined by newlines), claimSrc is a program each
	// claim was made for; check verifies every claim. evictedExplain
	// counts the explain repeats slmsd recomputed, changedExplain those
	// that named another recurrence than their first reply.
	claimReplies                   map[string]int
	claimSrc                       map[string]string
	evictedExplain, changedExplain int
}

// pendingCheck is a repeat whose first reply had not arrived when the
// repeat's did; an explain repeat keeps its reply.
type pendingCheck struct {
	r      streamReq
	digest [sha256.Size]byte
	reply  []byte
}

// keptReply is a first-round fresh reply, checked after the phase.
type keptReply struct {
	b     *body
	reply []byte
}

func setupServe(seed int64) (instance, error) {
	clients := runtime.NumCPU()
	d, err := startSlmsd(clients)
	if err != nil {
		return nil, err
	}
	s := &serve{d: d, gen: newGenerator(seed, bench.Kernels()), clients: clients,
		claimReplies: map[string]int{}, claimSrc: map[string]string{}}
	// Warm-up: fresh requests until the response cache has cycled
	// (evictAge+recentMax insertions), so the timed phase finds bodies of
	// every class from its first request on and its mix holds steady.
	err = s.drive(nil, func() (streamReq, int, bool) {
		if s.gen.ins >= evictAge+recentMax {
			return streamReq{}, 0, false
		}
		return streamReq{class: classFresh, b: s.gen.fresh()}, 0, true
	}, nil)
	if err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

// drive sends the requests next draws, on every client connection at
// once, until next reports the end; next runs under s.mu and also says
// which half of the phase the request belongs to (1 = traced, its span
// goes into tr). Every reply is checked, and done, when set, receives
// each request's latency in ms.
func (s *serve) drive(tr *tracer, next func() (streamReq, int, bool), done func(r streamReq, h int, ms float64)) error {
	var wg sync.WaitGroup
	errs := make([]error, s.clients)
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				s.mu.Lock()
				r, h, ok := next()
				var b []byte
				var ep string
				if ok {
					b, ep = s.gen.render(r.b), s.gen.cells[r.b.cell].endpoint
				}
				s.mu.Unlock()
				if !ok {
					return
				}
				var t *tracer
				if h == 1 {
					t = tr
				}
				id := t.begin("request", classNames[r.class]+" "+ep+" "+s.gen.kernels[s.gen.cells[r.b.cell].kernel].Name, -1, r.pos)
				t0 := time.Now()
				st, reply, err := s.d.post(ep, b)
				lat := ms(time.Since(t0))
				t.end(id)
				if err != nil {
					errs[c] = err
					return
				}
				s.record(r, st, reply)
				if done != nil {
					done(r, h, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sliceLen is how long each untraced or traced slice of a traced run's
// timed phase lasts; the slices alternate so both halves see the same
// cache and heap growth.
const sliceLen = time.Second

func (s *serve) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := newPhase()
	var lat [2][numClasses][]float64
	var latMu sync.Mutex
	half, stopping := 0, false // guarded by s.mu
	freshPerSec := float64(len(s.gen.cells)) / freshRound.Seconds()
	caches0, stats0 := readCaches(), s.d.srv.Stats()
	rt0 := readRuntime()
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		errc <- s.drive(tr, func() (streamReq, int, bool) {
			if stopping {
				return streamReq{}, 0, false
			}
			r := s.gen.nextReq(float64(s.fresh) < time.Since(start).Seconds()*freshPerSec)
			if r.class == classFresh {
				s.fresh++
			}
			return r, half, true
		}, func(r streamReq, h int, ms float64) {
			latMu.Lock()
			lat[h][r.class] = append(lat[h][r.class], ms)
			latMu.Unlock()
		})
	}()

	var err error
	for slice := 0; ; slice++ {
		h := 0
		if tr != nil && slice%2 == 1 {
			h = 1
		}
		s.mu.Lock()
		half = h
		s.mu.Unlock()
		w0, c0 := time.Now(), cpuTime()
		end := d
		if tr != nil {
			end = min(d, time.Duration(slice+1)*sliceLen)
		}
		time.Sleep(time.Until(start.Add(end)))
		last := time.Since(start) >= d && (tr == nil || slice >= 1)
		if last {
			s.mu.Lock()
			stopping = true
			s.mu.Unlock()
			err = <-errc
		}
		p.half[h].wall += time.Since(w0)
		p.half[h].cpu += cpuTime() - c0
		if last {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	p.rt = readRuntime().sub(rt0)
	var n, clientMs [numClasses]float64
	for h := range lat {
		for c := range lat[h] {
			p.half[h].lat = append(p.half[h].lat, lat[h][c]...)
			p.rt.ops += len(lat[h][c])
			n[c] += float64(len(lat[h][c]))
			for _, v := range lat[h][c] {
				clientMs[c] += v
			}
		}
	}
	mix := make([]string, numClasses)
	for c := range n {
		mix[c] = fmt.Sprintf("%s %.0f requests (%.2f%%, %.1f%% of client time)", classNames[c],
			n[c], 100*n[c]/float64(p.rt.ops), 100*clientMs[c]/(clientMs[0]+clientMs[1]+clientMs[2]))
	}
	p.notes = append(p.notes, "mix: "+strings.Join(mix, "; "))

	readCaches().sub(caches0).rates(p)
	stats := s.d.srv.Stats()
	hits, misses := stats.CacheHits-stats0.CacheHits, stats.CacheMisses-stats0.CacheMisses
	p.layer["server.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	p.layer["server.queue_max"] = float64(stats.MaxQueueDepth)
	p.layer["server.rejected"] = float64(stats.QueueRejected - stats0.QueueRejected)
	// Client-side latency by class, from the traced half.
	p.layer["server.hit_us"] = median(lat[1][classRecent]) * 1e3
	p.layer["server.fresh_ms"] = median(lat[1][classFresh])
	p.layer["server.evicted_ms"] = median(lat[1][classEvicted])
	p.layerN["server.hit_us"] = len(lat[1][classRecent])
	p.layerN["server.fresh_ms"] = len(lat[1][classFresh])
	p.layerN["server.evicted_ms"] = len(lat[1][classEvicted])
	return p, nil
}

// record checks one reply: a 200, and for a repeat the same bytes as the
// body's first reply, except that an explain repeat may name another
// recurrence (see explain.go). First-round fresh replies are kept for
// check.
func (s *serve) record(r streamReq, status int, reply []byte) {
	digest := sha256.Sum256(reply)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent++
	if status != http.StatusOK {
		s.bad++
		return
	}
	b := r.b
	explain := s.gen.cells[b.cell].endpoint == epExplain
	switch {
	case r.class == classFresh:
		b.first, b.hasFirst = digest, true
		if explain {
			claims, ok := s.claims(b, reply)
			if !ok {
				s.bad++
				return
			}
			b.firstMasked, b.firstClaims = maskRecurrences(reply), claims
		}
		if b.firstRound {
			s.kept = append(s.kept, keptReply{b, reply})
		}
	case b.hasFirst:
		if !s.sameReply(r, digest, reply) {
			s.bad++
		}
	default:
		pc := pendingCheck{r: r, digest: digest}
		if explain {
			pc.reply = reply
		}
		s.pending = append(s.pending, pc)
	}
}

// sameReply checks a repeat against its body's first reply. An explain
// repeat matches when it differs at most in the recurrences it names;
// check verifies those.
func (s *serve) sameReply(r streamReq, digest [sha256.Size]byte, reply []byte) bool {
	b := r.b
	if s.gen.cells[b.cell].endpoint != epExplain {
		return digest == b.first
	}
	if r.class == classEvicted {
		s.evictedExplain++
	}
	if digest == b.first {
		if b.firstClaims != "" {
			s.claimReplies[b.firstClaims]++
		}
		return true
	}
	if maskRecurrences(reply) != b.firstMasked {
		return false
	}
	if r.class == classEvicted {
		s.changedExplain++
	}
	_, ok := s.claims(b, reply)
	return ok
}

// claims records the recurrences an explain reply names and returns
// them as one key; false when the reply does not parse.
func (s *serve) claims(b *body, reply []byte) (string, bool) {
	keys, err := recurrenceClaims(reply)
	if err != nil {
		return "", false
	}
	if len(keys) == 0 {
		return "", true
	}
	for _, k := range keys {
		if _, ok := s.claimSrc[k]; !ok {
			s.claimSrc[k] = s.gen.source(b)
		}
	}
	joined := strings.Join(keys, "\n")
	s.claimReplies[joined]++
	return joined, true
}

// verifyClaims checks every recurrence an explain reply named and counts
// the replies that named one that does not bind as claimed.
func (s *serve) verifyClaims() int {
	var v claimVerifier
	bad := map[string]bool{}
	for k, src := range s.claimSrc {
		if err := v.verify(src, k); err != nil {
			bad[k] = true
			fmt.Fprintf(os.Stderr, "perfbench: explain: %v\n", err)
		}
	}
	failed := 0
	for joined, n := range s.claimReplies {
		for _, k := range strings.Split(joined, "\n") {
			if bad[k] {
				failed += n
				break
			}
		}
	}
	return failed
}

// check finishes the first round outside the timed phase if the phase
// did not reach its end, then verifies the kept replies: the programs
// /v1/compile returned must behave like their sources under the
// interpreter, /v1/explain must refute no loop, and the simulating
// endpoints must report both legs. The first round's /v1/schedule
// cycles are gen_cycles: every schedule cell once, whatever the seed.
func (s *serve) check(p *phase) error {
	for s.gen.freshOrder.rounds == 0 {
		b := s.gen.fresh()
		st, reply, err := s.d.post(s.gen.cells[b.cell].endpoint, s.gen.render(b))
		if err != nil {
			return err
		}
		s.record(streamReq{class: classFresh, b: b}, st, reply)
	}
	for _, pc := range s.pending {
		if !pc.r.b.hasFirst || !s.sameReply(pc.r, pc.digest, pc.reply) {
			s.bad++
		}
	}
	p.attempted, p.failed = s.sent, s.bad+s.verifyClaims()
	p.notes = append(p.notes, fmt.Sprintf("known defect: %d of %d recomputed /v1/explain repeats named another binding recurrence than their first reply (every named recurrence checked against its loop's dependence graph)",
		s.changedExplain, s.evictedExplain))
	p.layer["analysis.recurrence_changed_share"] = share(s.changedExplain, s.evictedExplain)
	p.layerN["analysis.recurrence_changed_share"] = s.evictedExplain
	for _, k := range s.kept {
		p.attempted++
		ok, err := s.checkReply(p, k)
		if err != nil {
			return err
		}
		if !ok {
			p.failed++
		}
	}
	p.cyclesNote = "base+SLMS cycles of the first round's /v1/schedule replies"
	p.decidedNote = "modulo-scheduled loops of the first round's strong-compiler /v1/schedule programs whose II meets the MII bound"
	return nil
}

func (s *serve) checkReply(p *phase, k keptReply) (bool, error) {
	c := s.gen.cells[k.b.cell]
	kern := s.gen.kernels[c.kernel]
	switch c.endpoint {
	case epCompile:
		var r server.CompileResponse
		if json.Unmarshal(k.reply, &r) != nil {
			return false, nil
		}
		return sameBehaviour(s.gen.source(k.b), r.Source, kern.Setup)
	case epExplain:
		var r server.ExplainResponse
		if json.Unmarshal(k.reply, &r) != nil {
			return false, nil
		}
		return r.Summary.Loops > 0 && r.Summary.Refuted == 0, nil
	case epProfile:
		var r server.ProfileResponse
		if json.Unmarshal(k.reply, &r) != nil {
			return false, nil
		}
		return r.Base != nil && r.SLMS != nil && r.Base.Cycles > 0 && r.SLMS.Cycles > 0, nil
	}
	var r server.ScheduleResponse
	if json.Unmarshal(k.reply, &r) != nil || r.Base == nil || r.SLMS == nil {
		return false, nil
	}
	p.genCycles += float64(r.Base.Cycles + r.SLMS.Cycles)
	if c.compiler == "strong" {
		// The server compiled both legs through the artifact cache, so
		// these compiles hit it and return the artifacts it simulated.
		d, err := machine.ByName(c.machine)
		if err != nil {
			return false, err
		}
		prog, err := source.Parse(s.gen.source(k.b))
		if err != nil {
			return false, err
		}
		tp, _, err := core.TransformProgramCached(prog, core.DefaultOptions())
		if err != nil {
			return false, err
		}
		for _, q := range []*source.Program{prog, tp} {
			art, err := pipeline.CompileForCached(q, d, pipeline.StrongO3)
			if err != nil {
				return false, err
			}
			countBound(p, art)
		}
	}
	return r.Base.Cycles > 0 && r.SLMS.Cycles > 0, nil
}

// sameBehaviour runs the original and the transformed program in the
// interpreter from the same seeded inputs and compares the final state.
func sameBehaviour(orig, transformed string, setup func(*interp.Env)) (bool, error) {
	po, err := source.Parse(orig)
	if err != nil {
		return false, err
	}
	pt, err := source.Parse(transformed)
	if err != nil {
		return false, nil
	}
	eo, et := seededEnv(setup), seededEnv(setup)
	if err := interp.Run(po, eo); err != nil {
		return false, err
	}
	if interp.Run(pt, et) != nil {
		return false, nil
	}
	return len(interp.Compare(eo, et, interp.CompareOpts{FloatTol: 1e-6})) == 0, nil
}

func seededEnv(setup func(*interp.Env)) *interp.Env {
	env := interp.NewEnv()
	if setup != nil {
		setup(env)
	}
	return env
}

// countBound adds an artifact's modulo-scheduled loops to decided_share:
// a loop is settled when its II meets the ResMII/RecMII lower bound,
// the proven-optimal verdict that needs no exact search.
func countBound(p *phase, art *pipeline.Artifact) {
	for _, r := range art.IMSResults {
		if r.II == 0 {
			continue
		}
		p.loops++
		if r.II == max(r.ResMII, r.RecMII, 1) {
			p.decided++
		}
	}
}

func (s *serve) sweep(tr *tracer, p *phase) error {
	// The first round's fresh programs, one variant per kernel, through
	// every layer on the four machines and both compiler classes.
	seen := map[int]bool{}
	var progs []sweepProg
	for _, k := range s.kept {
		c := s.gen.cells[k.b.cell]
		if seen[c.kernel] {
			continue
		}
		seen[c.kernel] = true
		kern := s.gen.kernels[c.kernel]
		var targets []target
		if !simRejects[kern.Name] {
			for _, m := range serveMachines {
				for _, cc := range []pipeline.Compiler{pipeline.WeakO3, pipeline.StrongO3} {
					targets = append(targets, mustTarget(m, cc))
				}
			}
		}
		progs = append(progs, sweepProg{name: kern.Name, src: s.gen.source(k.b), setup: kern.Setup, targets: targets})
	}
	if err := sweepLayers(tr, p, progs); err != nil {
		return err
	}
	return figurePass(tr)
}

func (s *serve) close() { s.d.stop() }
