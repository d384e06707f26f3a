package pipeline

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"slms/internal/analysis"
	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/source"
)

// Request is one unit of work as every front end states it: the JSON
// body of each slmsd /v1 endpoint and, through BindFlags and
// ReadSource, the request flags and input of the CLIs that mirror those
// endpoints. Each front end runs one of three computations on it —
// Transform (/v1/compile, slmsc, slmsexplain), Explain (/v1/explain,
// slmslint) or Measure (/v1/schedule, /v1/profile, slmssim -compare,
// slmsprof) — so a loop's verdict does not depend on which one was
// asked. Validate checks every field's value on every front end; a
// field the computation does not read is accepted and ignored.
type Request struct {
	// Source is the mini-C program text.
	Source string `json:"source"`
	// Machine and Compiler select the simulated target (defaults "ia64"
	// and "weak"); O0 disables final-compiler scheduling. Measure
	// simulates on the target; Explain audits on the machine when
	// Effort is set.
	Machine  string `json:"machine,omitempty"`
	Compiler string `json:"compiler,omitempty"`
	O0       bool   `json:"o0,omitempty"`
	// Scheduler selects the modulo scheduling of strong-compiler
	// targets: "ims" (the heuristic alone, default) or "exact" (the
	// heuristic's schedule, exact refutation of every II below it, and
	// a lower exact schedule kept when one exists). Effort sets the
	// exact search budget ("quick", "standard", "max"); under "ims" a
	// non-empty effort runs the same exact refutation, and Explain runs
	// the optimality audit at that effort.
	Scheduler string `json:"scheduler,omitempty"`
	Effort    string `json:"effort,omitempty"`
	// Paper selects the paper's `a; || b;` par-group rendering of the
	// transformed program.
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

// Validate checks the value of every field, whether or not the
// computation that runs the request reads it: the machine, compiler,
// scheduler and effort names, the expansion, the threshold range,
// min_arith_per_mem_ref and the sign of timeout_ms. An accepted
// request's Target never fails.
func (r *Request) Validate() error {
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be non-negative, got %d", r.TimeoutMS)
	}
	if _, err := ims.EffortConfig(r.Scheduler, r.Effort); err != nil {
		return err
	}
	if o := r.Options; o != nil {
		switch o.Expansion {
		case "", "mve", "array":
		default:
			return fmt.Errorf("unknown options.expansion %q (want mve or array)", o.Expansion)
		}
		if o.Threshold < 0 || o.Threshold > 1 {
			return fmt.Errorf("options.threshold must be in [0,1], got %v", o.Threshold)
		}
		if o.MinArithPerMemRef < 0 {
			return fmt.Errorf("options.min_arith_per_mem_ref must be non-negative")
		}
	}
	_, _, err := r.Target()
	return err
}

// CoreOptions maps the request options onto core.Options.
func (r *Request) CoreOptions() core.Options {
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

// Target resolves the simulated machine/compiler pair, defaulting to
// the paper's primary target (ia64-like VLIW under the weak compiler).
func (r *Request) Target() (*machine.Desc, Compiler, error) {
	d, err := machine.ByName(cmp.Or(r.Machine, "ia64"))
	if err != nil {
		return nil, Compiler{}, err
	}
	cc, err := CompilerByName(cmp.Or(r.Compiler, "weak"), r.O0)
	if err != nil {
		return nil, Compiler{}, err
	}
	cc.Scheduler, cc.Effort = r.Scheduler, r.Effort
	return d, cc, nil
}

// Fingerprint is slmsd's response-cache key: the endpoint plus every
// semantically relevant request field (the deadline is excluded — it
// changes when a result arrives, not what the result is). Keying on the
// raw source bytes keeps the cached hot path free of parsing; the
// pipeline cache underneath (package memo) still deduplicates
// semantically identical programs by printed-AST fingerprint.
func (r *Request) Fingerprint(endpoint string) string {
	canon := *r
	canon.TimeoutMS = 0
	blob, err := json.Marshal(&canon)
	if err != nil { // a Request is always marshalable; be loud if not
		panic(fmt.Sprintf("pipeline: canonicalizing request: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, endpoint)
	h.Write([]byte{0})
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

// BindFlags registers the named request fields on fs under the flag
// names the CLIs share: "machine" (default ia64), "compiler" (default
// weak), "O0", "scheduler", "effort", "paper", and the SLMS options
// "nofilter", "threshold" (default 0.85), "speculate", "expand"
// (default mve) and "noguard". A CLI names the fields its computation
// reads and calls Validate after fs.Parse.
func (r *Request) BindFlags(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "machine":
			fs.StringVar(&r.Machine, name, "ia64", "ia64, power4, pentium or arm7")
		case "compiler":
			fs.StringVar(&r.Compiler, name, "weak", "weak (GCC-like) or strong (ICC/XLC-like)")
		case "O0":
			fs.BoolVar(&r.O0, name, false, "disable compiler scheduling")
		case "scheduler":
			fs.StringVar(&r.Scheduler, name, "", "modulo scheduling for strong compiles: ims (the heuristic alone, default) or exact (the heuristic's schedule, exact refutation below its II, and a lower exact schedule kept)")
		case "effort":
			fs.StringVar(&r.Effort, name, "", "exact-scheduler effort: quick, standard or max (under ims, also proves the optimality gap)")
		case "paper":
			fs.BoolVar(&r.Paper, name, false, "print par groups in paper style (a; || b;)")
		case "nofilter":
			fs.BoolFunc(name, "disable the bad-case filter", func(s string) error {
				off, err := strconv.ParseBool(s)
				on := !off
				r.options().Filter = &on
				return err
			})
		case "threshold":
			fs.Float64Var(&r.options().Threshold, name, 0.85, "memory-ref ratio filter threshold")
		case "speculate":
			fs.BoolVar(&r.options().Speculate, name, false, "schedule across unproven dependences")
		case "expand":
			fs.StringVar(&r.options().Expansion, name, "mve", "variant expansion: mve or array")
		case "noguard":
			fs.BoolVar(&r.options().NoGuard, name, false, "omit the short-trip guard")
		default:
			panic(fmt.Sprintf("pipeline: no request flag %q", name))
		}
	}
}

func (r *Request) options() *OptionsRequest {
	if r.Options == nil {
		r.Options = &OptionsRequest{}
	}
	return r.Options
}

// ReadSource sets r.Source from the named file, or from standard input
// when path is "-".
func (r *Request) ReadSource(path string) error {
	var text []byte
	var err error
	if path == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(path)
	}
	r.Source = string(text)
	return err
}

// Transform parses the request's program and applies SLMS to it through
// the pipeline cache under r.CoreOptions(), below the span ctx carries.
// It returns the program, its transformation and the per-loop results;
// the last two are shared with the cache and read-only. A context done
// by the time the transform returns is the error.
func Transform(ctx context.Context, r *Request) (prog, out *source.Program, results []*core.Result, err error) {
	prog, err = source.Parse(r.Source)
	if err != nil {
		return nil, nil, nil, err
	}
	out, results, err = core.TransformProgramCachedSpan(obs.SpanFrom(ctx), prog, r.CoreOptions())
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, out, results, nil
}

// Explain runs Transform and the translation validator on every loop:
// why each was or was not transformed, and whether each application is
// proved, refuted or left to the differential harness (which diff
// forces on every loop, over seeds input sets; 0 means 3). A non-empty
// r.Effort adds the machine-level optimality audit on r's machine at
// that effort, one SLMS31x diagnostic per modulo-scheduled loop. The
// report names no file.
func Explain(ctx context.Context, r *Request, diff bool, seeds int) (*analysis.Report, []*core.Result, error) {
	prog, out, results, err := Transform(ctx, r)
	if err != nil {
		return nil, nil, err
	}
	rep := analysis.LintTransformed("", prog, out, results,
		analysis.LintOptions{Core: r.CoreOptions(), Diff: diff, Seeds: seeds})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if r.Effort != "" {
		d, _, err := r.Target()
		if err != nil {
			return nil, nil, err
		}
		diags, err := analysis.Optgap(prog, analysis.OptgapOptions{Machine: d, Effort: r.Effort})
		if err != nil {
			return nil, nil, err
		}
		rep.Diags = append(rep.Diags, diags...)
	}
	return rep, results, nil
}

// Measure compiles and simulates the request's program on its target
// twice — as written and after SLMS under r.CoreOptions() — on
// identical inputs, below the span ctx carries, and checks that both
// runs leave the same state. modes is the caller's: /v1/profile and
// slmsprof profile, /v1/schedule measures plainly, and slmssim -compare
// passes its -profile and -verify flags.
func Measure(ctx context.Context, r *Request, modes Modes) (*Outcome, error) {
	d, cc, err := r.Target()
	if err != nil {
		return nil, err
	}
	prog, err := source.Parse(r.Source)
	if err != nil {
		return nil, err
	}
	outs, errs, err := RunExperimentsCtx(ctx, prog, d, cc, []core.Options{r.CoreOptions()}, nil, modes)
	if err == nil {
		err = errs[0]
	}
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}
