package core

import (
	"slms/internal/memo"
	"slms/internal/obs"
	"slms/internal/source"
)

// transformed is the transform stage's cache value. The SLMS
// transformation depends only on the program text and the options — not
// on the target machine or final compiler — yet the evaluation harness
// runs it for every (machine, compiler) cell of every figure, so it is a
// stage of the pipeline cache (package memo). The pipeline only prints,
// compiles and simulates the shared outputs, all read-only over the AST.
type transformed struct {
	prog    *source.Program
	results []*Result
}

// TransformCacheStats reports the transform stage's cumulative hit and
// miss counts since the last memo.Reset.
func TransformCacheStats() (hits, misses int64) { return memo.Stats(memo.Transform) }

// TransformProgramCached is TransformProgram behind the pipeline cache:
// identical (program, options) pairs transform once and share the
// output. The returned program and results must be treated as
// read-only.
func TransformProgramCached(p *source.Program, opts Options) (*source.Program, []*Result, error) {
	return TransformProgramCachedSpan(nil, p, opts)
}

// TransformProgramCachedSpan is TransformProgramCached annotating sp
// with the cache outcome; a miss runs the transform under sp (per-loop
// spans and decision records).
func TransformProgramCachedSpan(sp *obs.Span, p *source.Program, opts Options) (*source.Program, []*Result, error) {
	k := memo.Key{Stage: memo.Transform, Hash: source.Fingerprint(p), Config: opts}
	t, err := memo.Get(sp, k, source.PrintedLen(p), func() (transformed, error) {
		out, results, err := TransformProgramSpan(sp, p, opts)
		return transformed{out, results}, err
	})
	return t.prog, t.results, err
}
