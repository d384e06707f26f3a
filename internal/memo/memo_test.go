package memo

import (
	"crypto/sha256"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"slms/internal/obs"
)

// newTestCache returns a private cache whose counters are not in the
// metrics registry.
func newTestCache(budget int) *cache {
	return newCache(budget, func(string) *obs.Counter { return new(obs.Counter) })
}

func key(st Stage, text string) Key {
	return Key{Stage: st, Hash: sha256.Sum256([]byte(text))}
}

// Concurrent Gets of one key run its fill once: every other caller finds
// the entry in flight, waits for it and gets the same value. A failed
// fill is cached the same way.
func TestConcurrentGetsFillOnce(t *testing.T) {
	c := newTestCache(1 << 10)
	errBad := errors.New("bad program")
	for _, want := range []error{nil, errBad} {
		const callers = 16
		k := key(Compile, "prog")
		k.Config = want != nil
		var fills atomic.Int32
		base := c.hits[Compile].Value()
		fill := func() (int, error) {
			fills.Add(1)
			// Hold the fill until every other caller has found the entry.
			for c.hits[Compile].Value()-base != callers-1 {
				runtime.Gosched()
			}
			return 42, want
		}
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, err := get(c, nil, k, 4, fill); v != 42 || !errors.Is(err, want) {
					t.Errorf("get = %d, %v; want 42, %v", v, err, want)
				}
			}()
		}
		wg.Wait()
		if n := fills.Load(); n != 1 {
			t.Errorf("err=%v: fill ran %d times, want 1", want, n)
		}
		if _, err := get(c, nil, k, 4, fill); !errors.Is(err, want) || fills.Load() != 1 {
			t.Errorf("err=%v: a later get refilled or lost the result (err %v)", want, err)
		}
	}
}

// A fill that panics still releases its waiters, with an error instead
// of a value, and the panic reaches the filling caller.
func TestPanickingFillReleasesWaiters(t *testing.T) {
	c := newTestCache(1 << 10)
	k := key(Transform, "boom")
	entered, waiting := make(chan struct{}), make(chan error)
	go func() {
		<-entered
		_, err := get(c, nil, k, 4, func() (int, error) { return 1, nil })
		waiting <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the fill's panic did not reach its caller")
			}
		}()
		get(c, nil, k, 4, func() (int, error) {
			close(entered)
			for c.hits[Transform].Value() == 0 {
				runtime.Gosched()
			}
			panic("fill bug")
		})
	}()
	if err := <-waiting; !errors.Is(err, errFillPanicked) {
		t.Errorf("waiter got %v, want %v", err, errFillPanicked)
	}
}

// A small private cache evicts the least recently used entry first,
// keeps an entry that was read again, and never holds more than its
// budget — not even for an entry that alone outweighs it.
func TestEvictsLeastRecentlyUsedWithinBudget(t *testing.T) {
	const budget = 10
	c := newTestCache(budget)
	fills := 0
	put := func(name string, weight int) {
		t.Helper()
		get(c, nil, key(Parse, name), weight, func() (string, error) { fills++; return name, nil })
		if c.weight > budget {
			t.Fatalf("after %s: weight %d over budget %d", name, c.weight, budget)
		}
	}
	cached := func(name string) bool {
		_, ok := c.entries[key(Parse, name)]
		return ok
	}
	put("a", 4)
	put("b", 4)
	put("a", 4) // read again: a is now the most recently used
	if fills != 2 {
		t.Fatalf("rereading a refilled it: %d fills", fills)
	}
	put("c", 4) // 12 > 10: evicts b, the least recently used
	if !cached("a") || cached("b") || !cached("c") {
		t.Errorf("after c: a=%v b=%v c=%v, want a and c cached, b evicted", cached("a"), cached("b"), cached("c"))
	}
	put("huge", budget+1)
	if len(c.entries) != 0 || c.lru.Len() != 0 || c.weight != 0 {
		t.Errorf("an entry over budget left %d entries, weight %d; want none", len(c.entries), c.weight)
	}
}

// Gets worth more than Budget in all leave the process-wide cache at or
// under Budget.
func TestProcessCacheStaysWithinBudget(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	const n, weight = 20, Budget / 8
	for i := 0; i < n; i++ {
		k := key(Compile, "prog")
		k.Config = i
		if _, err := Get(nil, k, weight, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	defaultCache.mu.Lock()
	w := defaultCache.weight
	defaultCache.mu.Unlock()
	if w > Budget {
		t.Errorf("cache holds %d of weight after %d, budget %d", w, n*weight, Budget)
	}
	if _, misses := Stats(Compile); misses != n {
		t.Errorf("misses = %d, want %d", misses, n)
	}
}

// Reset zeroes every stage's counters and empties the cache, the
// verifier's verdicts (the fifth stage) included.
func TestResetZeroesEveryStage(t *testing.T) {
	if numStages != 5 || stageNames[Verify] != "analysis.verify.cache" {
		t.Fatalf("stages %v: want five, the verify stage named analysis.verify.cache", stageNames)
	}
	Reset()
	t.Cleanup(Reset)
	one := func() (int, error) { return 1, nil }
	for st := Stage(0); st < numStages; st++ {
		for i := 0; i < 2; i++ {
			Get(nil, key(st, "prog"), 1, one)
		}
		if h, m := Stats(st); h != 1 || m != 1 {
			t.Fatalf("%s: hits=%d misses=%d, want 1/1", stageNames[st], h, m)
		}
	}
	Reset()
	for st := Stage(0); st < numStages; st++ {
		if h, m := Stats(st); h != 0 || m != 0 {
			t.Errorf("%s after Reset: hits=%d misses=%d, want 0/0", stageNames[st], h, m)
		}
		Get(nil, key(st, "prog"), 1, one)
		if _, m := Stats(st); m != 1 {
			t.Errorf("%s: an entry survived Reset", stageNames[st])
		}
	}
}
