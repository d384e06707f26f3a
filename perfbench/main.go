// Command perfbench is the repository benchmark. It runs one workload
// in-process for a fixed time, checks the outputs, and prints every
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object: end-to-end metrics for an
// untraced run (-trace 0), per-layer metrics for a traced run
// (-trace 1). README.md records why each workload exists and which
// metric each layer should move.
//
// Build and run it through run.sh, which keeps every file the build
// writes under .bench_build/:
//
//	bash perfbench/run.sh --workload serve_mixed --seed 3 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// instance is one set-up workload, ready for its timed phase.
type instance interface {
	// measure runs the timed phase for at least d. With tr non-nil the
	// phase alternates untraced and traced slices, and the traced ones
	// record op spans into tr.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// check verifies outputs outside the timed ops and fills the
	// phase's attempted/failed counts and quality metrics.
	check(p *phase) error
	// sweep replays the workload's inputs through every layer's public
	// calls, one span per call, and adds per-layer values to p.layer.
	sweep(tr *tracer, p *phase) error
	close()
}

// workloads maps each workload name to its set-up. A set-up makes the
// inputs from the seed and warms up; everything before the first timed
// op counts toward setup_s.
var workloads = map[string]func(seed int64) (instance, error){
	"figures_cold":  setupFigures,
	"serve_mixed":   setupServe,
	"optgap_census": setupCensus,
}

// A run sets its workload up once itself and again in fresh processes,
// at least setupMin times in all, and on until the set-ups add up to
// setupBudget or number setupMax; setup_s is their median. Quick set-ups
// are the noisiest, and take the most samples.
const (
	setupMin    = 9
	setupMax    = 21
	setupBudget = 2.0 // seconds
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	probe    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: figures_cold, serve_mixed or optgap_census")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.probe, "setup-probe", false, "set the workload up, print setup_s and exit")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || fs.NArg() != 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload figures_cold|serve_mixed|optgap_census, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if err := runWorkload(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

func runWorkload(o options, stdout, stderr io.Writer) error {
	t0 := processStart()
	inst, err := workloads[o.workload](o.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0).Seconds()
	if o.probe {
		inst.close()
		fmt.Fprintf(stdout, "setup_s %.9f\n", setup)
		return nil
	}
	defer inst.close()

	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	p, err := inst.measure(time.Duration(o.seconds*float64(time.Second)), tr)
	if err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	if err := inst.check(p); err != nil {
		return fmt.Errorf("output check: %w", err)
	}

	rep := &report{w: stdout}
	rep.line("host: num_cpu=%d gomaxprocs=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep.line("run: workload=%s seed=%d seconds=%g trace=%d", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range p.notes {
		rep.line("%s", n)
	}

	if tr != nil {
		if err := inst.sweep(tr, p); err != nil {
			return fmt.Errorf("layer sweep: %w", err)
		}
		path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		rep.line("spans: %d written to %s", tr.len(), path)
		layerMetrics(rep, tr, p)
	} else {
		if p.rssMB == 0 {
			if p.rssMB, err = peakRSSMB(); err != nil {
				return err
			}
			p.rssNote = "VmHWM at exit"
		}
		samples := []float64{setup}
		for total := setup; len(samples) < setupMin || (total < setupBudget && len(samples) < setupMax); {
			s, err := probeSetup(o, stderr)
			if err != nil {
				return fmt.Errorf("set-up probe %d: %w", len(samples), err)
			}
			samples = append(samples, s)
			total += s
		}
		endToEndMetrics(rep, p, samples)
	}
	return rep.finish(p.attempted, p.failed)
}

// processStart is when this process began, as its launcher recorded it
// in SLMSPERF_T0 (Unix nanoseconds) just before exec. Without it the
// main package's initialization time stands in.
func processStart() time.Time {
	if s := os.Getenv("SLMSPERF_T0"); s != "" {
		if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
			return time.Unix(0, ns)
		}
	}
	return initTime
}

var initTime = time.Now()

// probeSetup runs the workload's set-up in a fresh process of this
// binary and returns its setup_s.
func probeSetup(o options, stderr io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-setup-probe")
	cmd.Env = append(os.Environ(), "SLMSPERF_T0="+strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var v float64
	if _, err := fmt.Sscanf(lastLine(out), "setup_s %g", &v); err != nil {
		return 0, fmt.Errorf("probe output %q: %w", lastLine(out), err)
	}
	return v, nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and collects the metrics of
// the final JSON line.
type report struct {
	w       io.Writer
	metrics map[string]metricOut
	err     error
}

func (r *report) line(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// metric records one metric and prints it with its note (sample count,
// percentile, definition).
func (r *report) metric(name string, v float64, unit, note string) {
	if r.metrics == nil {
		r.metrics = map[string]metricOut{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.err = errors.Join(r.err, fmt.Errorf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics[name] = metricOut{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	r.line("metric %-36s %14.6g %-6s%s", name, v, unit, note)
}

func (r *report) finish(attempted, failed int) error {
	if r.err != nil {
		return r.err
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, r.metrics}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(res); err != nil {
		return err
	}
	r.line("checked: %d attempted, %d failed", attempted, failed)
	_, err := r.w.Write(b.Bytes())
	return err
}
