package server

import (
	"context"
	"fmt"
	"sync"

	"slms/internal/analysis"
	"slms/internal/core"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/sim"
	"slms/internal/source"
)

// Response DTOs. They are rendered into cached bodies, so everything
// here must be deterministic for a given request: no timestamps, no
// request IDs, no map iteration leaking into ordering (maps marshal
// with sorted keys under encoding/json).

// DecisionReport is the wire form of an SLMS2xx decision record. It
// deliberately drops the record's timestamp and span linkage so that
// identical requests produce byte-identical responses.
type DecisionReport struct {
	Code    string         `json:"code"`
	Verdict string         `json:"verdict"`
	Reason  string         `json:"reason,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// LoopReport describes what SLMS did to one innermost loop.
type LoopReport struct {
	// Loop is the "line:col" position of the for statement.
	Loop    string `json:"loop"`
	Applied bool   `json:"applied"`
	Reason  string `json:"reason,omitempty"`
	II      int64  `json:"ii,omitempty"`
	MIs     int    `json:"mis,omitempty"`
	Stages  int    `json:"stages,omitempty"`
	Unroll  int    `json:"unroll,omitempty"`
	// Mode is the variable-expansion mode ("MVE" or "scalar-expansion").
	Mode     string         `json:"mode,omitempty"`
	Decision DecisionReport `json:"decision"`
}

func loopReports(results []*core.Result) []LoopReport {
	loops := make([]LoopReport, 0, len(results))
	for _, r := range results {
		lr := LoopReport{
			Loop:    fmt.Sprintf("%d:%d", r.Pos.Line, r.Pos.Col),
			Applied: r.Applied,
			Reason:  r.Reason,
			Decision: DecisionReport{
				Code:    r.Decision.Code,
				Verdict: r.Decision.Verdict,
				Reason:  r.Decision.Reason,
				Attrs:   r.Decision.Attrs,
			},
		}
		if r.Applied {
			lr.II, lr.MIs, lr.Stages, lr.Unroll = r.II, r.MIs, r.Stages, r.Unroll
			lr.Mode = r.Mode.String()
		}
		loops = append(loops, lr)
	}
	return loops
}

// MetricsReport is the wire form of one simulated run's metrics.
type MetricsReport struct {
	Cycles      int64   `json:"cycles"`
	Energy      float64 `json:"energy"`
	Instrs      int64   `json:"instrs"`
	Loads       int64   `json:"loads"`
	Stores      int64   `json:"stores"`
	CacheMisses int64   `json:"cache_misses"`
}

func metricsReport(m *sim.Metrics) *MetricsReport {
	if m == nil {
		return nil
	}
	return &MetricsReport{
		Cycles: m.Cycles, Energy: m.Energy, Instrs: m.Instrs,
		Loads: m.Loads, Stores: m.Stores, CacheMisses: m.CacheMiss,
	}
}

// CompileResponse is the /v1/compile body: the transformed program text
// plus the per-loop decisions.
type CompileResponse struct {
	// Source is the pipelined source-to-source output (the paper's
	// `a; || b;` rendering when the request sets "paper").
	Source  string       `json:"source"`
	Applied bool         `json:"applied"`
	Loops   []LoopReport `json:"loops"`
}

// handleCompile replies with pipeline.Transform: source in, pipelined
// source out. No machine simulation.
func (s *Server) handleCompile(ctx context.Context, req *Request) (any, *apiError) {
	_, out, results, err := pipeline.Transform(ctx, req)
	if err != nil {
		return nil, classifyPipelineErr(ctx, err)
	}
	resp := &CompileResponse{Loops: loopReports(results)}
	for _, r := range results {
		resp.Applied = resp.Applied || r.Applied
	}
	if req.Paper {
		resp.Source = source.PrintPaper(out)
	} else {
		resp.Source = source.Print(out)
	}
	return resp, nil
}

// ScheduleResponse is the /v1/schedule body: base vs SLMS metrics on
// the simulated target.
type ScheduleResponse struct {
	Machine  string `json:"machine"`
	Compiler string `json:"compiler"`
	Applied  bool   `json:"applied"`
	// Speedup is base cycles / SLMS cycles; EnergyRatio base energy /
	// SLMS energy (>1 = SLMS wins).
	Speedup     float64        `json:"speedup"`
	EnergyRatio float64        `json:"energy_ratio"`
	Base        *MetricsReport `json:"base"`
	SLMS        *MetricsReport `json:"slms"`
	Loops       []LoopReport   `json:"loops"`
}

// handleSchedule replies with pipeline.Measure: the program compiled
// and simulated twice — untouched and SLMS-transformed — on the
// requested machine/compiler pair.
func (s *Server) handleSchedule(ctx context.Context, req *Request) (any, *apiError) {
	o, err := pipeline.Measure(ctx, req)
	if err != nil {
		return nil, classifyPipelineErr(ctx, err)
	}
	d, cc, _ := req.Target() // validated at decode
	return &ScheduleResponse{
		Machine:     d.Name,
		Compiler:    cc.Name,
		Applied:     o.Applied,
		Speedup:     o.Speedup,
		EnergyRatio: o.PowerRatio,
		Base:        metricsReport(o.Base),
		SLMS:        metricsReport(o.SLMS),
		Loops:       loopReports(o.Results),
	}, nil
}

// ExplainResponse is the /v1/explain body: the translation validator's
// verdict on every loop plus the decision records.
type ExplainResponse struct {
	Diagnostics []analysis.Diag  `json:"diagnostics"`
	Summary     analysis.Summary `json:"summary"`
	Loops       []LoopReport     `json:"loops"`
}

// handleExplain replies with pipeline.Explain: why each loop was
// accepted or rejected and the translation validator's verdict on each
// application, plus, when the request sets an effort, the machine-level
// optimality audit (one SLMS31x diagnostic per modulo-scheduled loop).
func (s *Server) handleExplain(ctx context.Context, req *Request) (any, *apiError) {
	report, results, err := pipeline.Explain(ctx, req, false, 0)
	if err != nil {
		return nil, classifyPipelineErr(ctx, err)
	}
	diags := report.Diags
	if diags == nil {
		diags = []analysis.Diag{}
	}
	return &ExplainResponse{
		Diagnostics: diags,
		Summary:     report.Summary,
		Loops:       loopReports(results),
	}, nil
}

// ProfileResponse is the /v1/profile body: cycle attribution for the
// base and SLMS legs.
type ProfileResponse struct {
	Machine  string        `json:"machine"`
	Compiler string        `json:"compiler"`
	Applied  bool          `json:"applied"`
	Speedup  float64       `json:"speedup"`
	Base     *prof.Profile `json:"base"`
	SLMS     *prof.Profile `json:"slms"`
	Loops    []LoopReport  `json:"loops"`
}

// Profiling is process-wide (a single atomic flag read by the
// simulator's hot path), so concurrent /v1/profile requests share it
// through a refcount: the flag turns on with the first profiled request
// and off with the last. A plain atomic counter is not enough — the
// enable racing a concurrent disable could leave the flag off while a
// profiled run is in flight — so the count and the flag change together
// under a mutex.
var (
	profMu    sync.Mutex
	profUsers int
)

func acquireProfiling() {
	profMu.Lock()
	defer profMu.Unlock()
	profUsers++
	if profUsers == 1 {
		prof.SetEnabled(true)
	}
}

func releaseProfiling() {
	profMu.Lock()
	defer profMu.Unlock()
	profUsers--
	if profUsers == 0 {
		prof.SetEnabled(false)
	}
}

// handleProfile replies with /v1/schedule's pipeline.Measure run under
// cycle attribution: both legs' profiles.
func (s *Server) handleProfile(ctx context.Context, req *Request) (any, *apiError) {
	acquireProfiling()
	defer releaseProfiling()
	o, err := pipeline.Measure(ctx, req)
	if err != nil {
		return nil, classifyPipelineErr(ctx, err)
	}
	d, cc, _ := req.Target() // validated at decode
	resp := &ProfileResponse{
		Machine:  d.Name,
		Compiler: cc.Name,
		Applied:  o.Applied,
		Speedup:  o.Speedup,
		Loops:    loopReports(o.Results),
	}
	if o.Base != nil && o.Base.Profile != nil {
		resp.Base = o.Base.Profile
		resp.Base.Machine = d.Name
	}
	if o.SLMS != nil && o.SLMS.Profile != nil {
		resp.SLMS = o.SLMS.Profile
		resp.SLMS.Machine = d.Name
	}
	return resp, nil
}
