package bench

import (
	"fmt"
	"runtime"
	"sync"

	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/memo"
	"slms/internal/pipeline"
	"slms/internal/source"
)

// The harness runs every measurement through one shared bounded worker
// pool: rows of a figure, figures of the suite, census rows and
// ablation cells all draw from the same token bucket, so total
// concurrency stays bounded by the pool size no matter how the work is
// nested. Orchestration code (a figure waiting for its rows) never
// holds a token while waiting, so nesting cannot deadlock.
//
// Beside the pool the harness keeps its measurement modes: whether its
// SLMS measurements profile and verify. The pipeline never reads them;
// each measurement passes them as its argument.

var (
	poolMu   sync.Mutex
	poolSize = runtime.GOMAXPROCS(0)
	poolSem  = make(chan struct{}, runtime.GOMAXPROCS(0))
	modes    pipeline.Modes
)

// SetModes sets the modes of every later SLMS measurement the harness
// makes (figures, cases, census and ablations): Profile fills
// SuiteProfiles, Verify proves every transform before it is compiled.
// The default measures plainly. Memoized measurements are keyed by
// their modes, so a change never returns one made in other modes.
func SetModes(m pipeline.Modes) {
	poolMu.Lock()
	modes = m
	poolMu.Unlock()
}

func currentModes() pipeline.Modes {
	poolMu.Lock()
	defer poolMu.Unlock()
	return modes
}

// SetWorkers resizes the shared worker pool (minimum 1; the default is
// runtime.GOMAXPROCS). In-flight work keeps its token from the old
// pool; new work draws from the new one.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	poolMu.Lock()
	poolSize = n
	poolSem = make(chan struct{}, n)
	poolMu.Unlock()
}

// Workers returns the current worker-pool size.
func Workers() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return poolSize
}

func currentSem() chan struct{} {
	poolMu.Lock()
	defer poolMu.Unlock()
	return poolSem
}

// parallelMap runs work over every item through the shared worker pool
// and returns the results in input order. All items are attempted; the
// first error in input order wins, making failures deterministic under
// concurrency. A panicking worker does not crash the harness: the panic
// is captured and reported as that item's error, named after the item
// (for kernels, the kernel name), so one broken kernel fails its figure
// while every other measurement completes.
func parallelMap[T, R any](items []T, work func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	sem := currentSem()
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it T) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("bench: worker panic on %s: %v", workItemName(it), r)
				}
			}()
			out[i], errs[i] = work(it)
		}(i, it)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// workItemName renders a work item for panic reports: kernels by name,
// everything else through %v.
func workItemName(it any) string {
	switch v := it.(type) {
	case Kernel:
		return "kernel " + v.Name
	case *Kernel:
		return "kernel " + v.Name
	default:
		return fmt.Sprintf("%v", v)
	}
}

// measureKey identifies one memoized measurement: kernel, machine,
// compiler and modes are embedded by value so distinct configurations
// can never collide.
type measureKey struct {
	kernel string
	src    string
	mach   machine.Desc
	cc     pipeline.Compiler
	modes  pipeline.Modes
}

// measureEntry is a once-filled memo slot; concurrent requests for the
// same measurement run it exactly once.
type measureEntry struct {
	once sync.Once
	out  *pipeline.Outcome
	err  error
}

var measureMemo sync.Map // measureKey -> *measureEntry

// ResetMeasurements drops every memoized measurement and the per-kernel
// aggregates built from them, so the next run measures real work and
// CyclesTable reports only that run.
func ResetMeasurements() {
	measureMemo.Range(func(k, _ any) bool {
		measureMemo.Delete(k)
		return true
	})
	kernelMeasurements.Lock()
	kernelMeasurements.m = map[string]*kernelAgg{}
	kernelMeasurements.Unlock()
}

// ResetHarnessState drops every cross-run memo and cache (measurement
// memo, kernel aggregates and the pipeline cache) so the next run
// measures real work from cold. memo.Reset clears every pipeline stage
// and its counters as one operation, so a snapshot taken after the
// reset sees every stage at zero, never a half-cleared mix.
func ResetHarnessState() {
	ResetMeasurements()
	memo.Reset()
}

// measureCached memoizes measure in the harness's modes: the same
// (kernel, machine, compiler, modes) tuple is measured once per process
// and shared. Measurements are deterministic (seeding, compilation and
// simulation all are), so the memo is observationally identical to
// re-measuring.
func measureCached(k Kernel, d *machine.Desc, cc pipeline.Compiler) (*pipeline.Outcome, error) {
	key := measureKey{kernel: k.Name, src: k.Source, mach: *d, cc: cc, modes: currentModes()}
	v, _ := measureMemo.LoadOrStore(key, &measureEntry{})
	e := v.(*measureEntry)
	e.once.Do(func() { e.out, e.err = measure(k, d, cc, key.modes) })
	return e.out, e.err
}

// runExperiment measures prog with and without SLMS under opts on the
// machine/compiler pair, in the harness's modes.
func runExperiment(prog *source.Program, d *machine.Desc, cc pipeline.Compiler, opts core.Options,
	seed func(*interp.Env)) (*pipeline.Outcome, error) {
	return pipeline.RunExperiment(prog, pipeline.Experiment{
		Machine: d, Compiler: cc, SLMS: opts, Modes: currentModes(),
	}, seed)
}
