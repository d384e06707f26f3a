package source

import (
	"crypto/sha256"

	"slms/internal/memo"
)

// ParseCacheStats reports the parse stage's cumulative hit and miss
// counts since the last memo.Reset.
func ParseCacheStats() (hits, misses int64) { return memo.Stats(memo.Parse) }

// ParseCached parses src through the pipeline cache (package memo),
// keyed by the sha256 of the source text: identical source text parses
// once and all callers share the same immutable AST. Shared ASTs also
// share their [Fingerprint], so downstream transform and compile stages
// hit without reprinting the program. Use Parse instead when the caller
// intends to mutate the result.
func ParseCached(src string) (*Program, error) {
	k := memo.Key{Stage: memo.Parse, Hash: sha256.Sum256([]byte(src))}
	return memo.Get(nil, k, len(src), func() (*Program, error) { return Parse(src) })
}

// MustParseCached is ParseCached for known-good sources; it panics on a
// parse error.
func MustParseCached(src string) *Program {
	p, err := ParseCached(src)
	if err != nil {
		panic(err)
	}
	return p
}
