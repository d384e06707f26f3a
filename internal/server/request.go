package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/machine"
	"slms/internal/pipeline"
)

// Request is the JSON body shared by every /v1 endpoint. Fields that an
// endpoint does not use are rejected there (e.g. "machine" on
// /v1/compile), so a typo never silently changes semantics.
type Request struct {
	// Source is the mini-C program text.
	Source string `json:"source"`
	// Machine and Compiler select the simulated target for /v1/schedule
	// and /v1/profile (defaults "ia64" and "weak"); O0 disables final-
	// compiler scheduling.
	Machine  string `json:"machine,omitempty"`
	Compiler string `json:"compiler,omitempty"`
	O0       bool   `json:"o0,omitempty"`
	// Scheduler selects the modulo scheduling of strong-compiler
	// targets: "ims" (the heuristic alone, default) or "exact" (the
	// heuristic's schedule, exact refutation of every II below it, and
	// a lower exact schedule kept when one exists). Effort sets the
	// exact search budget ("quick", "standard", "max"); under "ims" a
	// non-empty effort runs the same exact refutation.
	Scheduler string `json:"scheduler,omitempty"`
	Effort    string `json:"effort,omitempty"`
	// Paper selects the paper's `a; || b;` par-group rendering for
	// /v1/compile output.
	Paper bool `json:"paper,omitempty"`
	// Options tunes the SLMS transformation; nil means the paper's
	// defaults (filter at 0.85, MVE, guarded output).
	Options *OptionsRequest `json:"options,omitempty"`
	// TimeoutMS caps this request's pipeline time; 0 means the server
	// default. Values above the server maximum are rejected.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// OptionsRequest mirrors core.Options over JSON.
type OptionsRequest struct {
	Filter            *bool   `json:"filter,omitempty"` // nil = on (paper default)
	Threshold         float64 `json:"threshold,omitempty"`
	Speculate         bool    `json:"speculate,omitempty"`
	Expansion         string  `json:"expansion,omitempty"` // "mve" (default) or "array"
	NoGuard           bool    `json:"noguard,omitempty"`
	MinArithPerMemRef float64 `json:"min_arith_per_mem_ref,omitempty"`
}

// maxSourceBytes bounds the source payload independently of the HTTP
// body limit, so an attacker cannot park a megabyte of source in the
// parser per request.
const maxSourceBytes = 256 * 1024

// decodeRequestBytes validates one endpoint body, already read into
// memory by the fast path (tooLarge reports that the read was cut off
// past maxBody). It returns an *apiError (400/413/422-class) on any
// problem.
func decodeRequestBytes(body []byte, maxBody int64, tooLarge bool) (*Request, *apiError) {
	if tooLarge {
		return nil, &apiError{status: 413, code: CodeBodyTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", maxBody)}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, errBadRequest("invalid request JSON: %v", err)
	}
	// Exactly one JSON value: trailing garbage is a malformed request.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errBadRequest("request body holds more than one JSON value")
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, errBadRequest("missing required field %q", "source")
	}
	if len(req.Source) > maxSourceBytes {
		return nil, &apiError{status: 413, code: CodeBodyTooLarge,
			msg: fmt.Sprintf("source payload exceeds %d bytes", maxSourceBytes)}
	}
	if req.TimeoutMS < 0 {
		return nil, errBadRequest("timeout_ms must be non-negative, got %d", req.TimeoutMS)
	}
	if _, err := ims.EffortConfig(req.Scheduler, req.Effort); err != nil {
		return nil, errBadRequest("%v", err)
	}
	if o := req.Options; o != nil {
		switch o.Expansion {
		case "", "mve", "array":
		default:
			return nil, errBadRequest("unknown options.expansion %q (want mve or array)", o.Expansion)
		}
		if o.Threshold < 0 || o.Threshold > 1 {
			return nil, errBadRequest("options.threshold must be in [0,1], got %v", o.Threshold)
		}
		if o.MinArithPerMemRef < 0 {
			return nil, errBadRequest("options.min_arith_per_mem_ref must be non-negative")
		}
	}
	return &req, nil
}

// coreOptions maps the request options onto core.Options.
func (r *Request) coreOptions() core.Options {
	opts := core.DefaultOptions()
	o := r.Options
	if o == nil {
		return opts
	}
	if o.Filter != nil {
		opts.Filter = *o.Filter
	}
	if o.Threshold != 0 {
		opts.MemRefThreshold = o.Threshold
	}
	opts.Speculate = o.Speculate
	if o.Expansion == "array" {
		opts.Expansion = core.ExpandScalar
	}
	opts.NoGuard = o.NoGuard
	opts.MinArithPerMemRef = o.MinArithPerMemRef
	return opts
}

// target resolves the simulated machine/compiler pair, defaulting to
// the paper's primary target (ia64-like VLIW under the weak compiler).
func (r *Request) target() (*machine.Desc, pipeline.Compiler, *apiError) {
	mName := r.Machine
	if mName == "" {
		mName = "ia64"
	}
	d, err := machine.ByName(mName)
	if err != nil {
		return nil, pipeline.Compiler{}, errBadRequest("%v", err)
	}
	cName := r.Compiler
	if cName == "" {
		cName = "weak"
	}
	cc, err := pipeline.CompilerByName(cName, r.O0)
	if err != nil {
		return nil, pipeline.Compiler{}, errBadRequest("%v", err)
	}
	cc.Scheduler = r.Scheduler
	cc.Effort = r.Effort
	return d, cc, nil
}

// deadline computes the request's pipeline budget from timeout_ms and
// the server's default/max configuration.
func (r *Request) deadline(def, max time.Duration) (time.Duration, *apiError) {
	if r.TimeoutMS == 0 {
		return def, nil
	}
	d := time.Duration(r.TimeoutMS) * time.Millisecond
	if d > max {
		return 0, errBadRequest("timeout_ms %d exceeds the server maximum %dms",
			r.TimeoutMS, max.Milliseconds())
	}
	return d, nil
}

// fingerprint is the response-cache key: the endpoint plus every
// semantically relevant request field (the deadline is excluded — it
// changes when a result arrives, not what the result is). Keying on the
// raw source bytes keeps the cached hot path free of parsing; the
// artifact and transform caches underneath still deduplicate
// semantically identical programs by printed-AST fingerprint.
func (r *Request) fingerprint(endpoint string) string {
	canon := *r
	canon.TimeoutMS = 0
	blob, err := json.Marshal(&canon)
	if err != nil { // a Request is always marshalable; be loud if not
		panic(fmt.Sprintf("server: canonicalizing request: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, endpoint)
	h.Write([]byte{0})
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}
