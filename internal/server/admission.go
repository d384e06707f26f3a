package server

import (
	"context"
	"sync/atomic"

	"slms/internal/obs"
)

// Admission control: a fixed pool of worker tokens plus a bounded wait
// queue in front of it. A request that cannot get a token immediately
// waits in the queue (still honoring its deadline); once the queue is
// at capacity further requests are rejected with 429 + Retry-After
// instead of piling up goroutines. This is the serving-side analogue of
// the bench harness's bounded worker pool: total concurrent pipeline
// work never exceeds the token count no matter the request rate.
type admission struct {
	tokens   chan struct{}
	capacity int64 // queue capacity

	queued   atomic.Int64 // requests currently waiting for a token
	maxDepth atomic.Int64 // high-water mark, for tests and /readyz
	rejected atomic.Int64 // this server's 429s, for Stats

	depthGauge *obs.Gauge
	busyGauge  *obs.Gauge   // worker-pool saturation: tokens in use
	rejects    *obs.Counter // every server's 429s, for /metrics
}

func newAdmission(workers, queue int) *admission {
	return &admission{
		tokens:     make(chan struct{}, workers),
		capacity:   int64(queue),
		depthGauge: obs.GaugeName("server.queue.depth"),
		busyGauge:  obs.GaugeName("server.workers.busy"),
		rejects:    obs.CounterName("server.queue.rejected"),
	}
}

// acquire obtains a worker token, queueing up to the configured depth.
// It returns errQueueFull when the queue is at capacity and a
// ctx-derived apiError when the caller's deadline fires while queued.
func (a *admission) acquire(ctx context.Context) *apiError {
	select {
	case a.tokens <- struct{}{}:
		a.busyGauge.Set(int64(len(a.tokens)))
		return nil
	default:
	}
	q := a.queued.Add(1)
	if q > a.capacity {
		a.queued.Add(-1)
		a.rejected.Add(1)
		a.rejects.Add(1)
		return errQueueFull
	}
	for {
		prev := a.maxDepth.Load()
		if q <= prev || a.maxDepth.CompareAndSwap(prev, q) {
			break
		}
	}
	a.depthGauge.Set(q)
	defer func() {
		a.depthGauge.Set(a.queued.Add(-1))
	}()
	select {
	case a.tokens <- struct{}{}:
		a.busyGauge.Set(int64(len(a.tokens)))
		return nil
	case <-ctx.Done():
		return ctxError(ctx, ctx.Err())
	}
}

// release returns a worker token.
func (a *admission) release() {
	<-a.tokens
	a.busyGauge.Set(int64(len(a.tokens)))
}

// depth reports the current queue depth.
func (a *admission) depth() int64 { return a.queued.Load() }
