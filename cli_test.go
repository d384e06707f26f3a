package slms_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"slms/internal/obs/promexp"
)

// buildTool compiles one of the cmd/ binaries into a temp dir.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, stdin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s",
			filepath.Base(bin), args, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

const cliLoop = `float A[64];
for (i = 2; i < 50; i++) {
	A[i] = A[i-1] + A[i-2] + A[i+1] + A[i+2];
}
`

func TestCLISlmsc(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "slmsc")

	// Stdin, paper style.
	out, _ := runTool(t, bin, cliLoop, "-paper", "-noguard", "-")
	if !strings.Contains(out, "||") || !strings.Contains(out, "reg1_2 = A[i + 2]") {
		t.Errorf("paper-style output unexpected:\n%s", out)
	}
	// File input, default style must reparse (verified by feeding it back).
	dir := t.TempDir()
	file := filepath.Join(dir, "loop.c")
	if err := os.WriteFile(file, []byte(cliLoop), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, stderr := runTool(t, bin, "", "-verbose", file)
	if !strings.Contains(stderr, "applied=true") {
		t.Errorf("verbose log missing:\n%s", stderr)
	}
	_, _ = runTool(t, bin, out2, "-") // output is valid input again

	// The SLC driver flag.
	fused := `float A[100]; float B[100]; float C[100];
float t = 0.0; float q = 0.0;
for (i = 1; i < 100; i++) { t = A[i-1]; B[i] = B[i] + t; A[i] = t + B[i]; }
for (i = 1; i < 100; i++) { q = C[i-1]; B[i] = B[i] + q; C[i] = q * B[i]; }
`
	_, stderr2 := runTool(t, bin, fused, "-slc", "-verbose", "-")
	if !strings.Contains(stderr2, "fusion+slms applied") {
		t.Errorf("slc driver did not fuse:\n%s", stderr2)
	}
}

func TestCLISlmslint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "slmslint")

	// A provable loop: SLMS100, proved summary, exit 0.
	out, _ := runTool(t, bin, cliLoop, "-nofilter", "-")
	if !strings.Contains(out, "SLMS100") || !strings.Contains(out, "(1 proved, 0 refuted, 0 inconclusive)") {
		t.Errorf("lint output unexpected:\n%s", out)
	}

	// JSON mode carries codes and the summary.
	js, _ := runTool(t, bin, cliLoop, "-nofilter", "-json", "-")
	if !strings.Contains(js, `"code": "SLMS100"`) || !strings.Contains(js, `"proved": 1`) {
		t.Errorf("json output unexpected:\n%s", js)
	}

	// A filter-rejected loop: informational SLMS001, still exit 0.
	filtered := "float A[64]; float B[64];\nfor (i = 0; i < 64; i++) { A[i] = B[i]; }\n"
	out2, _ := runTool(t, bin, filtered, "-")
	if !strings.Contains(out2, "SLMS001") {
		t.Errorf("filter diagnostic missing:\n%s", out2)
	}
	// -q hides info diagnostics but keeps the summary line.
	quiet, _ := runTool(t, bin, filtered, "-q", "-")
	if strings.Contains(quiet, "SLMS001") || !strings.Contains(quiet, "1 filtered") {
		t.Errorf("quiet output unexpected:\n%s", quiet)
	}

	// No arguments is a usage error: exit 2.
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("want a usage error for missing arguments")
	} else if ee, isExit := err.(*exec.ExitError); !isExit || ee.ExitCode() != 2 {
		t.Errorf("usage failure should exit 2, got %v", err)
	}
}

func TestCLISlmscVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "slmsc")
	out, _ := runTool(t, bin, cliLoop, "-verify", "-nofilter", "-")
	if !strings.Contains(out, "for (") {
		t.Errorf("verified compile produced no loop:\n%s", out)
	}
}

func TestCLISlmsexplain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "slmsexplain")
	out, _ := runTool(t, bin, cliLoop, "-")
	for _, want := range []string{"canonical:", "MI0:", "DDG", "MII", "SLMS applied"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output lacks %q:\n%s", want, out)
		}
	}
	dot, _ := runTool(t, bin, cliLoop, "-dot", "-")
	if !strings.Contains(dot, "digraph ddg") {
		t.Errorf("dot output missing:\n%s", dot)
	}
	// A loop under an if: the guard bounds m, which proves the
	// distances, so the compiler pipelines it and the explanation must
	// say so rather than re-analyzing the loop without its guard.
	guarded, _ := runTool(t, bin, `int m; float A[512]; float B[512];
if (m >= 200) {
  for (i = 0; i < 100; i++) {
    A[i+m] = A[i] * 0.7 + B[i];
  }
}
`, "-")
	if !strings.Contains(guarded, "SLMS applied: II=1") || strings.Contains(guarded, "SLMS230") {
		t.Errorf("guarded loop not explained as the compiler pipelines it (II=1, no SLMS230):\n%s", guarded)
	}

	// The report is deterministic: every scalars block lists its names
	// in order, so repeated runs print the same bytes.
	multiloop := filepath.Join("internal", "core", "testdata", "multiloop.c")
	first, _ := runTool(t, bin, "", multiloop)
	for run := 2; run <= 10; run++ {
		if again, _ := runTool(t, bin, "", multiloop); again != first {
			t.Fatalf("slmsexplain %s run %d differs from run 1:\n%s\n--- run 1 ---\n%s", multiloop, run, again, first)
		}
	}
	var names []string
	inBlock, blocks := false, 0
	for _, line := range strings.Split(first, "\n") {
		if line == "scalars:" {
			inBlock, names = true, nil
			blocks++
			continue
		}
		if !inBlock || !strings.Contains(line, "(defs=") {
			inBlock = false
			continue
		}
		names = append(names, strings.Fields(line)[0])
		if !sort.StringsAreSorted(names) {
			t.Errorf("scalars block %d is not in name order: %v", blocks, names)
		}
	}
	if blocks == 0 {
		t.Errorf("slmsexplain %s printed no scalars block:\n%s", multiloop, first)
	}
}

// cliSimProg has a loop SLMS transforms under the strong compiler.
const cliSimProg = `float A[200]; float B[200];
for (z = 0; z < 200; z++) { A[z] = 0.1 * z; }
float t = 0.0;
for (i = 1; i < 190; i++) { t = A[i-1]; B[i] = B[i] + t; }
`

func TestCLISlmssim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "slmssim")
	out, _ := runTool(t, bin, cliSimProg, "-machine", "ia64", "-compiler", "strong", "-compare", "-")
	if !strings.Contains(out, "speedup:") || !strings.Contains(out, "slms applied: true") {
		t.Errorf("compare output unexpected:\n%s", out)
	}
	out2, _ := runTool(t, bin, cliSimProg, "-machine", "arm7", "-")
	if !strings.Contains(out2, "cycles=") {
		t.Errorf("metrics missing:\n%s", out2)
	}

	// A strong compile of a program with several pipelined loops prints
	// one line per loop body, in block order, so repeated runs print the
	// same bytes. Map order put the later loop first in about one run in
	// eight, so the test runs the command many times.
	multiloop := filepath.Join("internal", "core", "testdata", "multiloop.c")
	first, _ := runTool(t, bin, "", "-q", "-compiler", "strong", multiloop)
	for run := 2; run <= 32; run++ {
		if again, _ := runTool(t, bin, "", "-q", "-compiler", "strong", multiloop); again != first {
			t.Fatalf("slmssim %s run %d differs from run 1:\n%s\n--- run 1 ---\n%s", multiloop, run, again, first)
		}
	}
	var bodies []int
	for _, m := range regexp.MustCompile(`loop body b(\d+):`).FindAllStringSubmatch(first, -1) {
		id, _ := strconv.Atoi(m[1])
		bodies = append(bodies, id)
	}
	if len(bodies) < 2 || !sort.IntsAreSorted(bodies) {
		t.Errorf("slmssim %s reported loop bodies %v, want at least 2 in block order:\n%s", multiloop, bodies, first)
	}
}

// TestCLISlmsbenchSingleFigure covers slmsbench's listing and
// single-figure modes, and checks that its default output is exactly
// the committed golden that internal/bench's TestHarnessDeterminism
// pins, so the documented regeneration command reproduces that file.
func TestCLISlmsbenchSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs the figures")
	}
	bin := buildTool(t, "slmsbench")
	out, _ := runTool(t, bin, "", "-list")
	if !strings.Contains(out, "14") || !strings.Contains(out, "caseA") {
		t.Errorf("list output unexpected:\n%s", out)
	}
	fig, _ := runTool(t, bin, "", "-figure", "caseB")
	if !strings.Contains(fig, "Case B") || !strings.Contains(fig, "xpow") {
		t.Errorf("figure output unexpected:\n%s", fig)
	}
	golden, err := os.ReadFile(filepath.Join("internal", "bench", "testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if all, _ := runTool(t, bin, ""); all != string(golden) {
		t.Error("slmsbench output differs from the golden; see " +
			"diff <(go run ./cmd/slmsbench) internal/bench/testdata/figures.golden")
	}
}

// checkPprofFile fails t unless path holds a non-empty gzip stream, as
// a -profile flag writes.
func checkPprofFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("%s: empty profile", path)
	}
}

// TestCLIProfileFlags: every -profile flag writes a non-empty gzipped
// pprof file, and slmsbench writes the same bytes on every run.
func TestCLIProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	sim, slmsc, bench := buildTool(t, "slmssim"), buildTool(t, "slmsc"), buildTool(t, "slmsbench")
	for name, run := range map[string]func(path string){
		"slmssim-compare": func(p string) {
			runTool(t, sim, cliSimProg, "-q", "-compiler", "strong", "-compare", "-profile", p, "-")
		},
		"slmssim": func(p string) { runTool(t, sim, cliSimProg, "-q", "-profile", p, "-") },
		"slmsc":   func(p string) { runTool(t, slmsc, cliLoop, "-q", "-profile", p, "-") },
		"slmsbench": func(p string) {
			runTool(t, bench, "", "-q", "-figure", "21", "-profile", p)
		},
	} {
		path := filepath.Join(dir, name+".pb.gz")
		run(path)
		checkPprofFile(t, path)
	}
	again := filepath.Join(dir, "slmsbench-again.pb.gz")
	runTool(t, bench, "", "-q", "-figure", "21", "-profile", again)
	first, err := os.ReadFile(filepath.Join(dir, "slmsbench.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if second, err := os.ReadFile(again); err != nil || !bytes.Equal(first, second) {
		t.Errorf("two slmsbench -profile runs wrote different files (err %v)", err)
	}
}

// TestCLIDecisionsSitInSpanTrees: a traced CLI run files every decision
// record as an event of a span in its trace, and that span carries the
// run's -request-id — also on the paths that open no span of their own
// (slmslint, the SLC driver, the bench census). slmsc -slc and slmsbench
// file every decision on a lane (root span) that names the command or
// the kernel: the SLC driver's transforms run under slmsc's root, and
// every bench measurement, experiment and precision-census transform
// under "<kind>:<kernel>".
func TestCLIDecisionsSitInSpanTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	const reqID = "req-decisions"
	src := filepath.Join("internal", "core", "testdata", "multiloop.c")
	dir := t.TempDir()
	kernelLane := func(name string) bool {
		kind, kernel, ok := strings.Cut(name, ":")
		return ok && kind != "" && kernel != ""
	}
	for _, c := range []struct {
		tool string
		args []string
		lane func(root string) bool // nil: any lane
	}{
		{"slmslint", []string{src}, nil},
		{"slmsc", []string{"-slc", src}, func(root string) bool { return root == "slmsc" }},
		{"slmsbench", []string{"-census"}, kernelLane},
		{"slmsbench", []string{"-figure", "caseB"}, kernelLane},
	} {
		trace := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", c.tool, len(c.args)))
		args := append([]string{"-q", "-trace", trace, "-trace-format", "jsonl", "-request-id", reqID}, c.args...)
		runTool(t, buildTool(t, c.tool), "", args...)
		blob, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		type record struct {
			Type string `json:"type"`
			ID   int64  `json:"id"`
			Span int64  `json:"span"`
			Root int64  `json:"root"`
			Req  string `json:"request_id"`
			Code string `json:"code"`
			Name string `json:"name"`
		}
		spans := map[int64]record{}
		var decisions []record
		for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
			var r record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("%s: trace line %q: %v", c.tool, line, err)
			}
			switch r.Type {
			case "span":
				spans[r.ID] = r
			case "decision":
				decisions = append(decisions, r)
			}
		}
		if len(decisions) == 0 {
			t.Errorf("%s %v wrote no decision records", c.tool, c.args)
		}
		for _, d := range decisions {
			sp, ok := spans[d.Span]
			if !ok || sp.Root != d.Root || sp.Req != reqID || d.Req != reqID {
				t.Errorf("%s: decision %s names span %d (root %d, request %q), found %v with %+v",
					c.tool, d.Code, d.Span, d.Root, d.Req, ok, sp)
			}
			if root := spans[d.Root].Name; c.lane != nil && !c.lane(root) {
				t.Errorf("%s %v: decision %s filed on lane %q, which names no kernel or command",
					c.tool, c.args, d.Code, root)
			}
		}
	}
}

// TestCLIVerifyFlags: -verify on slmssim -compare and on slmsbench
// succeeds on the corpus and changes nothing the command prints.
func TestCLIVerifyFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs a figure")
	}
	sim, bench := buildTool(t, "slmssim"), buildTool(t, "slmsbench")
	for _, c := range []struct {
		bin, stdin string
		args       []string
	}{
		{sim, cliSimProg, []string{"-q", "-compiler", "strong", "-compare", "-"}},
		{bench, "", []string{"-q", "-figure", "14"}},
	} {
		plain, _ := runTool(t, c.bin, c.stdin, c.args...)
		verified, _ := runTool(t, c.bin, c.stdin, append([]string{"-verify"}, c.args...)...)
		if verified != plain {
			t.Errorf("%s -verify %v printed\n%s\nwithout -verify\n%s",
				filepath.Base(c.bin), c.args, verified, plain)
		}
	}
}

// TestCLISlmsd covers the serving daemon: flag misuse exits 2, and a
// full lifecycle — start, serve compiles over HTTP (correlated request
// IDs, atomic access-log lines, a Prometheus scrape), drain on SIGTERM
// — exits 0.
func TestCLISlmsd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "slmsd")

	for _, args := range [][]string{
		{"positional-arg"},
		{"-workers", "-1"},
		{"-queue", "-1"},
		{"-timeout", "0s"},
		{"-timeout", "2m", "-max-timeout", "1m"},
		{"-definitely-not-a-flag"},
	} {
		err := exec.Command(bin, args...).Run()
		if ee, isExit := err.(*exec.ExitError); !isExit || ee.ExitCode() != 2 {
			t.Errorf("slmsd %v: want exit 2, got %v", args, err)
		}
	}

	// Lifecycle: bind an ephemeral port, read the address off the status
	// line, serve requests, then SIGTERM and expect a clean exit. The
	// access log goes to a file so its lines can be checked after exit.
	accessPath := filepath.Join(t.TempDir(), "access.log")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-access-log", accessPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	scanner := bufio.NewScanner(stderr)
	var addr string
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("slmsd never reported its address (scan err: %v)", scanner.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	base := "http://" + addr
	resp, err := http.Post(base+"/v1/compile", "application/json",
		strings.NewReader(`{"source": "float A[8]; for (i = 0; i < 8; i++) { A[i] = 0.5; }"}`))
	if err != nil {
		t.Fatalf("POST /v1/compile: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("compile status = %d, body:\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}

	// A supplied traceparent becomes the request ID end to end.
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("POST", base+"/v1/compile",
		strings.NewReader(`{"source": "float A[8]; for (i = 0; i < 8; i++) { A[i] = 0.5; }"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != traceID {
		t.Errorf("traceparent not adopted: X-Request-ID = %q, want %q", got, traceID)
	}

	// Concurrent load: every access-log line must come out whole.
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				body := fmt.Sprintf(`{"source": "x = %d; y = x * %d;"}`, c, i)
				r, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()

	// Prometheus scrape.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(string(metrics), `slms_server_requests_total{endpoint="compile"}`) {
		t.Errorf("/metrics missing the compile request counter:\n%.1000s", metrics)
	}
	// The exposition must satisfy the in-repo Prometheus linter — the
	// same check the CI metrics-contract job runs against a live scrape.
	for _, p := range promexp.Lint(bytes.NewReader(metrics)) {
		t.Errorf("/metrics lint: %s", p)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("slmsd did not exit cleanly on SIGTERM: %v", err)
	}

	// Every access-log line is whole (no interleaving under concurrency)
	// and carries the full field set.
	blob, err := os.ReadFile(accessPath)
	if err != nil {
		t.Fatalf("read access log: %v", err)
	}
	lineRE := regexp.MustCompile(`^access endpoint=\S+ status=\d+ req=\S+ fp=\S+ cache=\S+ deadline_ms=-?\d+ dur_us=\d+$`)
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	if len(lines) < 32 {
		t.Errorf("access log has %d lines, want >= 32 (2 + 30 concurrent)", len(lines))
	}
	for i, line := range lines {
		if !lineRE.MatchString(line) {
			t.Errorf("access log line %d malformed (interleaved?): %q", i+1, line)
		}
	}
	if !strings.Contains(string(blob), "req="+traceID) {
		t.Errorf("access log never mentions the supplied trace ID %s", traceID)
	}

	// -access-log=off: a short lifecycle that must log no access lines.
	out, err := runSlmsdOnce(t, bin, "-access-log=off")
	if err != nil {
		t.Fatalf("slmsd -access-log=off lifecycle: %v", err)
	}
	if strings.Contains(out, "access endpoint=") {
		t.Errorf("-access-log=off still wrote access lines:\n%s", out)
	}
}

// runSlmsdOnce starts slmsd with the extra args, serves one compile,
// SIGTERMs it, and returns everything it wrote to stderr.
func runSlmsdOnce(t *testing.T, bin string, extra ...string) (string, error) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	defer cmd.Process.Kill()

	var buf strings.Builder
	scanner := bufio.NewScanner(stderr)
	var addr string
	for scanner.Scan() {
		line := scanner.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if addr == "" {
		return buf.String(), fmt.Errorf("slmsd never reported its address (scan err: %v)", scanner.Err())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for scanner.Scan() {
			buf.WriteString(scanner.Text())
			buf.WriteByte('\n')
		}
	}()

	resp, err := http.Post("http://"+addr+"/v1/compile", "application/json",
		strings.NewReader(`{"source": "float A[8]; for (i = 0; i < 8; i++) { A[i] = 0.5; }"}`))
	if err != nil {
		return buf.String(), err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return buf.String(), err
	}
	err = cmd.Wait()
	<-done
	return buf.String(), err
}

// TestCLIFlagParity pins the shared observability flag surface across
// every binary in cmd/. The list is enumerated from the directory, not
// hard-coded, so adding a ninth binary without obs.RegisterFlags fails
// here instead of silently shipping a CLI that cannot be correlated,
// traced or quieted like the rest.
func TestCLIFlagParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	names := cmdNames(t)
	// The contract every binary carries: request correlation, tracing,
	// metrics export, quiet mode.
	required := []string{"-request-id", "-trace", "-trace-format", "-metrics", "-q"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := buildTool(t, name)
			out, err := exec.Command(bin, "-h").CombinedOutput()
			if err != nil { // flag package exits 0 on -h
				t.Fatalf("%s -h: %v\n%s", name, err, out)
			}
			usage := string(out)
			for _, f := range required {
				// Usage lines render flags as "  -request-id string".
				if !regexp.MustCompile(`(?m)^\s+` + f + `\b`).MatchString(usage) {
					t.Errorf("%s usage does not list %s", name, f)
				}
			}
		})
	}
}

// cmdNames lists the binaries under cmd/.
func cmdNames(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) < 8 {
		t.Fatalf("cmd/ lists %d binaries (%v), want at least the 8 known ones", len(names), names)
	}
	return names
}

// flagDefaultRE matches the "(default X)" that -h appends to a flag
// whose default is not its type's zero value.
var flagDefaultRE = regexp.MustCompile(`\((default .*)\)$`)

// flagSurface reduces -h output to one "-name type [(default X)]" line
// per flag; -h prints no type for a boolean flag.
func flagSurface(usage string) []string {
	var lines []string
	for _, l := range strings.Split(usage, "\n") {
		if strings.HasPrefix(l, "  -") {
			head, _, _ := strings.Cut(l[2:], "\t")
			if !strings.Contains(head, " ") {
				head += " bool"
			}
			lines = append(lines, head)
		}
		if m := flagDefaultRE.FindStringSubmatch(l); m != nil && len(lines) > 0 {
			lines[len(lines)-1] += " (" + m[1] + ")"
		}
	}
	return lines
}

// TestCLIFlagSurface pins every binary's flags — name, type and default
// as -h prints them — to testdata/cli_flags.golden, so moving a CLI's
// request flags onto pipeline.Request.BindFlags cannot rename, retype
// or re-default one.
func TestCLIFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "cli_flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, flagLine, _ := strings.Cut(l, " ")
		want[name] = append(want[name], flagLine)
	}
	names := cmdNames(t)
	if len(names) != len(want) {
		t.Errorf("cmd/ lists %v; the golden covers %d binaries", names, len(want))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := buildTool(t, name)
			out, err := exec.Command(bin, "-h").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -h: %v\n%s", name, err, out)
			}
			got := flagSurface(string(out))
			if strings.Join(got, "\n") != strings.Join(want[name], "\n") {
				t.Errorf("%s flag surface changed\n--- got ---\n%s\n--- want ---\n%s",
					name, strings.Join(got, "\n"), strings.Join(want[name], "\n"))
			}
		})
	}
}

// TestCLISlmsfr covers the postmortem reader end to end on a golden
// dump: lint, the request-ID-joined timeline, verbose bodies/spans,
// filters, in-process replay reproducing each recorded outcome, and
// the typed-failure exit codes for corrupt dumps.
func TestCLISlmsfr(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "slmsfr")
	golden := filepath.Join("internal", "obs", "flight", "testdata", "golden-sigquit.json")

	out, _ := runTool(t, bin, "", "-q", "-lint", golden)
	_ = out // -q suppresses the ok line; exit 0 is the assertion

	lintOut, lintErr := runTool(t, bin, "", "-lint", golden)
	if !strings.Contains(lintOut+lintErr, "flightdump/v1 ok") {
		t.Errorf("lint output unexpected:\nstdout: %s\nstderr: %s", lintOut, lintErr)
	}

	// The timeline joins decision records to requests by ID.
	print, _ := runTool(t, bin, "", golden)
	for _, want := range []string{
		"flightdump/v1 seq=1 reason=sigquit",
		"req=r00000001", "req=r00000002",
		"decision SLMS220 skip loop=1:14",
		"decision SLMS422 error loop=1:16",
		"== slowest: compile",
	} {
		if !strings.Contains(print, want) {
			t.Errorf("print output lacks %q:\n%s", want, print)
		}
	}
	if strings.Contains(print, "float A[16]") {
		t.Errorf("bodies printed without -v:\n%s", print)
	}

	verbose, _ := runTool(t, bin, "", "-v", golden)
	for _, want := range []string{"span server.compile", "span   transform", "body: {\"source\""} {
		if !strings.Contains(verbose, want) {
			t.Errorf("-v output lacks %q:\n%s", want, verbose)
		}
	}

	// -request-id narrows the timeline to one request.
	one, _ := runTool(t, bin, "", "-request-id", "r00000002", golden)
	if strings.Contains(one, "req=r00000001") || !strings.Contains(one, "req=r00000002") {
		t.Errorf("-request-id filter leaked other requests:\n%s", one)
	}

	// In-process replay: both captured outcomes (a 200 and an SLMS422)
	// reproduce from the dump alone, so the command exits 0.
	rep, _ := runTool(t, bin, "", "-replay", golden)
	for _, want := range []string{
		"want=200 got=200 reproduced",
		"want=422/SLMS422 got=422/SLMS422 reproduced",
		"replayed 2 requests: 2 reproduced, 0 diverged",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("replay output lacks %q:\n%s", want, rep)
		}
	}

	// A dump read from stdin works; a corrupt one is a typed exit-1
	// failure, never a panic.
	blob, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	stdinOut, _ := runTool(t, bin, string(blob), "-q", "-")
	if !strings.Contains(stdinOut, "req=r00000001") {
		t.Errorf("stdin dump not printed:\n%s", stdinOut)
	}
	cmd := exec.Command(bin, "-")
	cmd.Stdin = strings.NewReader(string(blob[:len(blob)/2]))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, isExit := err.(*exec.ExitError); !isExit || ee.ExitCode() != 1 {
		t.Errorf("corrupt dump: want exit 1, got %v", err)
	}
	if !strings.Contains(stderr.String(), "not valid JSON") || strings.Contains(stderr.String(), "goroutine") {
		t.Errorf("corrupt dump error not typed (or panicked):\n%s", stderr.String())
	}
}

// TestExamplesRun builds and runs every example program end to end.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cases := map[string]string{
		"quickstart": "speedup:",
		"slcsession": "II=3 (paper: II=3)",
		"embedded":   "verdict",
		"whileloops": "results identical to the original",
	}
	for name, want := range cases {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), name)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			var stdout bytes.Buffer
			cmd := exec.Command(bin)
			cmd.Stdout = &stdout
			cmd.Stderr = &stdout
			if err := cmd.Run(); err != nil {
				t.Fatalf("run: %v\n%s", err, stdout.String())
			}
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("output lacks %q:\n%s", want, stdout.String())
			}
		})
	}
}

// TestCLIContract pins the shared command-line conventions across every
// command: a usage error exits 2, a pipeline error (bad input) exits 1,
// success exits 0, and -q suppresses informational status output while
// leaving errors on stderr.
func TestCLIContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	garbage := "for (i = 0; i <" // unparseable

	cases := []struct {
		name string
		// okArgs runs the happy path reading cliLoop from stdin;
		// usageArgs must exit 2; badInput feeds garbage to okArgs and
		// must exit badExit — 1 everywhere except slmslint, whose
		// documented contract reserves 1 for lint findings and reports
		// input errors as 2.
		okArgs    []string
		usageArgs []string
		badExit   int
	}{
		{"slmsc", []string{"-"}, []string{"-expand", "sideways", "-"}, 1},
		{"slmslint", []string{"-nofilter", "-"}, []string{"-expand", "sideways", "-"}, 2},
		{"slmsexplain", []string{"-"}, nil, 1},
		{"slmssim", []string{"-machine", "arm7", "-"}, []string{"-machine", "cray1", "-"}, 1},
		{"slmsprof", []string{"-machine", "arm7", "-top", "3", "-"}, []string{"-format", "yaml", "-"}, 1},
		{"slmsbench", []string{"-figure", "caseB"}, []string{"-effort", "bogus"}, 1},
		{"slmsfr", []string{"-"}, []string{"-lint", "-replay", "-"}, 1},
	}
	goldenDump, err := os.ReadFile(filepath.Join("internal", "obs", "flight", "testdata", "golden-sigquit.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			bin := buildTool(t, tc.name)
			stdin := cliLoop
			switch tc.name {
			case "slmsbench":
				stdin = ""
			case "slmsfr": // reads a flight dump, not mini-C source
				stdin = string(goldenDump)
			}

			// Success: exit 0, and -q leaves stderr free of info lines.
			run := func(args ...string) (string, string, int) {
				cmd := exec.Command(bin, args...)
				if stdin != "" {
					cmd.Stdin = strings.NewReader(stdin)
				}
				var stdout, stderr bytes.Buffer
				cmd.Stdout = &stdout
				cmd.Stderr = &stderr
				err := cmd.Run()
				code := 0
				if ee, ok := err.(*exec.ExitError); ok {
					code = ee.ExitCode()
				} else if err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				return stdout.String(), stderr.String(), code
			}

			stdout, stderr, code := run(append([]string{"-q"}, tc.okArgs...)...)
			if code != 0 {
				t.Fatalf("-q %v exited %d\nstderr:\n%s", tc.okArgs, code, stderr)
			}
			if stdout == "" {
				t.Errorf("-q %v suppressed primary output", tc.okArgs)
			}
			for _, line := range strings.Split(stderr, "\n") {
				if line != "" && !strings.HasPrefix(line, "slms: warning:") {
					t.Errorf("-q %v left status output on stderr: %q", tc.okArgs, line)
				}
			}

			// Usage error: exit 2 (bad flag for everyone; plus the
			// command-specific usage mistake when one exists).
			usages := [][]string{{"-definitely-not-a-flag"}}
			if tc.usageArgs != nil {
				usages = append(usages, tc.usageArgs)
			}
			switch tc.name {
			case "slmsbench": // no mode takes an argument
				usages = append(usages,
					[]string{"-optgap", "-effort", "bogus"},
					[]string{"extra.json"}) // stray argument
			case "slmslint": // -machine and -effort are checked without -optgap too
				usages = append(usages,
					[]string{"-effort", "bogus", "-"},
					[]string{"-machine", "nosuch", "-"},
					nil) // missing argument
			default:
				usages = append(usages, nil) // missing argument
			}
			for _, args := range usages {
				saved := stdin
				stdin = ""
				_, stderr, code := run(args...)
				stdin = saved
				if code != 2 {
					t.Errorf("%v exited %d, want usage code 2", args, code)
				}
				// Bad flag *values*, stray arguments and a missing
				// argument (as opposed to flag-package parse errors)
				// report through the slog wrapper.
				if (len(args) == 0 || args[0] != "-definitely-not-a-flag") &&
					!strings.Contains(stderr, "slms: error:") {
					t.Errorf("%v did not report through the slog wrapper:\n%s", args, stderr)
				}
			}

			// Pipeline error: exit 1.
			badArgs := tc.okArgs
			if tc.name == "slmsbench" {
				badArgs = []string{"-figure", "no-such-figure"}
			} else {
				stdin = garbage
			}
			_, stderr, code = run(badArgs...)
			if code != tc.badExit {
				t.Errorf("bad input exited %d, want %d\nstderr:\n%s", code, tc.badExit, stderr)
			}
			if strings.TrimSpace(stderr) == "" {
				t.Errorf("bad input reported nothing on stderr")
			}
		})
	}
}
