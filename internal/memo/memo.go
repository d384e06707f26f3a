// Package memo is the pipeline's one cache. The evaluation measures the
// same few programs on many (machine, compiler, expansion) cells, so the
// parse, transform, verify, lower and compile stages are memoized by
// program content in one process-wide table keyed by (stage, content
// hash, configuration by value). The verify stage holds the translation
// validator's verdicts on a transform, which package analysis returns
// only for the very results they were computed on.
//
// Each key is filled once; concurrent callers wait for that fill and
// share its value, which they must treat as read-only. A failed fill is
// cached like a successful one. Entries are evicted least-recently-used
// first once their total weight passes Budget. An entry weighs the
// length of the program text its hash covers: one 256 KB request can
// outweigh a thousand corpus kernels, so an entry count bounds nothing.
package memo

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"

	"slms/internal/obs"
)

// Stage is the pipeline stage a cache entry belongs to.
type Stage uint8

// The pipeline stages, in pipeline order.
const (
	Parse     Stage = iota // source text → AST
	Transform              // (program, core options) → transformed program and loop results
	Verify                 // (program, core options) → the verified results and their verdicts
	Lower                  // program → lowered, CSE'd function (machine-independent)
	Compile                // (program, machine, compiler) → artifact
	numStages
)

// stageNames name each stage's <name>.hits and <name>.misses registry
// counters, the only record of its hits and misses.
var stageNames = [numStages]string{
	"source.parse.cache",
	"core.transform.cache",
	"analysis.verify.cache",
	"pipeline.lower.cache",
	"pipeline.compile.cache",
}

// Budget is the process-wide cache's weight budget: 8 MiB of program
// text. A figures pass inserts about 0.7 MB of weight and a 20-s
// serve_mixed run about 3.1 MB, and an evicted repeat must still find
// its transform and artifacts, so the budget holds at least twice the
// larger working set. serve_mixed keeps about 89 bytes of live heap per
// byte of weight, which caps the cache near 0.75 GB.
const Budget = 8 << 20

// Key identifies one cache entry. Config is the stage's configuration
// by value and must be comparable.
type Key struct {
	Stage  Stage
	Hash   [sha256.Size]byte
	Config any
}

// errFillPanicked is what the waiters of a panicking fill get; the
// panic itself goes on up the filling goroutine.
var errFillPanicked = errors.New("memo: cache fill panicked")

// entry is one once-filled slot: val and err are written before done
// closes and read only after.
type entry struct {
	key    Key
	weight int
	done   chan struct{}
	val    any
	err    error
}

type cache struct {
	budget       int
	disabled     atomic.Bool
	hits, misses [numStages]*obs.Counter

	mu      sync.Mutex
	entries map[Key]*list.Element // Value is *entry
	lru     list.List             // most recently used first
	weight  int                   // of the entries in lru
}

var defaultCache = newCache(Budget, obs.CounterName)

// newCache returns an empty cache of the given budget whose stage
// counters come from counter.
func newCache(budget int, counter func(name string) *obs.Counter) *cache {
	c := &cache{budget: budget, entries: map[Key]*list.Element{}}
	for st, name := range stageNames {
		c.hits[st], c.misses[st] = counter(name+".hits"), counter(name+".misses")
	}
	return c
}

// Get returns the value cached under k, running fill once on a miss.
// weight is the length of the program text k.Hash covers. A non-nil sp
// gets a cache=hit|miss attribute.
func Get[V any](sp *obs.Span, k Key, weight int, fill func() (V, error)) (V, error) {
	return get(defaultCache, sp, k, weight, fill)
}

func get[V any](c *cache, sp *obs.Span, k Key, weight int, fill func() (V, error)) (V, error) {
	if c.disabled.Load() {
		return fill()
	}
	e, hit := c.lookup(k, weight)
	if hit {
		sp.Attr("cache", "hit")
		<-e.done
	} else {
		sp.Attr("cache", "miss")
		func() {
			defer close(e.done)
			e.err = errFillPanicked // unless fill returns
			v, err := fill()
			e.val, e.err = v, err
		}()
	}
	v, _ := e.val.(V) // e.val is nil only if the fill panicked
	return v, e.err
}

// lookup returns k's entry and whether it was cached, counting the hit
// or miss. A new entry goes in front, and entries leave from the back
// until the weight fits the budget — the new one too, if it alone
// outweighs the budget.
func (c *cache) lookup(k Key, weight int) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.hits[k.Stage].Add(1)
		c.lru.MoveToFront(el)
		return el.Value.(*entry), true
	}
	c.misses[k.Stage].Add(1)
	e := &entry{key: k, weight: weight, done: make(chan struct{})}
	c.entries[k] = c.lru.PushFront(e)
	c.weight += weight
	for c.weight > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*entry)
		delete(c.entries, old.key)
		c.weight -= old.weight
	}
	return e, false
}

// Reset empties the process-wide cache and zeroes every stage's
// counters as one operation. Fills in flight still reach their callers.
func Reset() {
	c := defaultCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[Key]*list.Element{}
	c.lru.Init()
	c.weight = 0
	for st := range c.hits {
		c.hits[st].Reset()
		c.misses[st].Reset()
	}
}

// Stats reports a stage's hits and misses since the last Reset.
func Stats(st Stage) (hits, misses int64) {
	return defaultCache.hits[st].Value(), defaultCache.misses[st].Value()
}

// SetEnabled turns the process-wide cache on (the default) or off. Off,
// it is empty, and every Get fills afresh and counts nothing; tests use
// that for uncached reference runs.
func SetEnabled(on bool) {
	defaultCache.disabled.Store(!on)
	if !on {
		Reset()
	}
}
