package pipeline

import (
	"context"
	"fmt"
	"sync"

	"slms/internal/machine"
	"slms/internal/memo"
	"slms/internal/obs"
	"slms/internal/source"
)

// The figure suite compiles the same (kernel, machine, compiler) triple
// many times — the base program recurs across figures and across the
// MVE / scalar-expansion variants of one measurement — so compilation
// is two stages of the pipeline cache (package memo): lower, keyed by
// the program, and compile, keyed by the program and an interned
// compileConfig. Every back-end run of a program reads the lower
// stage's one function through its own header and never writes it.
// A simulation run treats an artifact as immutable (see package sim), so
// one shared artifact may be simulated from any number of goroutines.

// compileConfig is the compile stage's configuration. Both descriptions
// are flat comparable structs, so two configurations collide only if
// they are semantically identical.
type compileConfig struct {
	mach machine.Desc
	cc   Compiler
}

// configs interns compile configurations. The compile stage keys on a
// configuration's canonical pointer rather than boxing the ~320-B struct
// into memo.Key.Config, so a hit allocates nothing, and two
// configurations share a pointer only if they are equal by value. The
// table keeps every distinct (machine, compiler) pair the process has
// compiled for: slmsd's requests name a fixed set of both.
var configs = struct {
	sync.Mutex
	m map[compileConfig]*compileConfig
}{m: map[compileConfig]*compileConfig{}}

// internConfig returns the canonical pointer of the (d, cc) configuration.
func internConfig(d *machine.Desc, cc Compiler) *compileConfig {
	cfg := compileConfig{*d, cc}
	configs.Lock()
	defer configs.Unlock()
	p := configs.m[cfg]
	if p == nil {
		p = new(compileConfig)
		*p = cfg
		configs.m[cfg] = p
	}
	return p
}

// CacheStats reports the compile stage's cumulative hit and miss counts
// since the last memo.Reset.
func CacheStats() (hits, misses int64) { return memo.Stats(memo.Compile) }

// CompileForCached is CompileFor behind the pipeline cache: identical
// (program, machine, compiler) triples compile once and share the
// artifact. The returned artifact must be treated as read-only;
// simulating it (Artifact.Predecoded, then Run) is safe concurrently.
func CompileForCached(p *source.Program, d *machine.Desc, cc Compiler) (*Artifact, error) {
	return compileForCachedCtxSpan(context.Background(), nil, p, d, cc)
}

// compileForCachedCtxSpan is CompileForCached annotating sp with the
// cache outcome. A shared compile runs to completion regardless of ctx
// — a canceled request must never poison the entry other requests
// share — but ctx is checked before the artifact is returned.
func compileForCachedCtxSpan(ctx context.Context, sp *obs.Span, p *source.Program, d *machine.Desc, cc Compiler) (*Artifact, error) {
	fp, n := source.Fingerprint(p), source.PrintedLen(p)
	k := memo.Key{Stage: memo.Compile, Hash: fp, Config: internConfig(d, cc)}
	art, err := memo.Get(sp, k, n, func() (*Artifact, error) {
		// A miss still shares the machine-independent front half across
		// all (machine, compiler) pairs of this program: lower once, then
		// run each back end on its own header over the shared function.
		lw, err := lowerCached(p)
		if err != nil {
			return nil, err
		}
		return scheduleForCtx(context.Background(), header(lw.f), lw.live, d, cc)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: compile aborted: %w", err)
	}
	return art, err
}

// lowerCached is lower behind the lower stage of the pipeline cache. The
// value is shared by every back-end run of the program and is never
// written.
func lowerCached(p *source.Program) (*lowered, error) {
	k := memo.Key{Stage: memo.Lower, Hash: source.Fingerprint(p)}
	return memo.Get(nil, k, source.PrintedLen(p), func() (*lowered, error) { return lower(p) })
}
