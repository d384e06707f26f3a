package slms_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"slms/internal/analysis"
	"slms/internal/prof"
	"slms/internal/server"
	"slms/internal/sim"
)

// TestCLIEndpointParity checks that every CLI and the slmsd endpoint it
// mirrors answer alike on each internal/core/testdata program, since
// both run one pipeline.Request through the same computation: slmsc and
// /v1/compile, slmssim -compare and /v1/schedule, slmslint and
// /v1/explain, slmsprof and /v1/profile.
func TestCLIEndpointParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	files, err := filepath.Glob(filepath.Join("internal", "core", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("loading the corpus: %v (found %d programs)", err, len(files))
	}
	bin := map[string]string{}
	for _, name := range []string{"slmsc", "slmssim", "slmslint", "slmsprof"} {
		bin[name] = buildTool(t, name)
	}
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	post := func(t *testing.T, endpoint string, req server.Request, reply any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s answered %d", endpoint, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
			t.Fatal(err)
		}
	}

	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		src := string(text)
		t.Run(filepath.Base(file), func(t *testing.T) {
			for _, paper := range []bool{false, true} {
				args := []string{"-q", file}
				if paper {
					args = []string{"-q", "-paper", file}
				}
				cli, _ := runTool(t, bin["slmsc"], "", args...)
				var reply server.CompileResponse
				post(t, "/v1/compile", server.Request{Source: src, Paper: paper}, &reply)
				if cli != reply.Source {
					t.Errorf("slmsc %v and /v1/compile differ\n--- cli ---\n%s\n--- endpoint ---\n%s", args, cli, reply.Source)
				}
			}

			for _, target := range [][2]string{{"ia64", "weak"}, {"power4", "strong"}} {
				cli, _ := runTool(t, bin["slmssim"], "", "-q", "-compare",
					"-machine", target[0], "-compiler", target[1], file)
				var reply server.ScheduleResponse
				post(t, "/v1/schedule", server.Request{Source: src, Machine: target[0], Compiler: target[1]}, &reply)
				metrics := func(m *server.MetricsReport) *sim.Metrics {
					return &sim.Metrics{Cycles: m.Cycles, Energy: m.Energy, Instrs: m.Instrs,
						Loads: m.Loads, Stores: m.Stores, CacheMiss: m.CacheMisses}
				}
				rendered := fmt.Sprintf("base: %s\nslms: %s\nspeedup: %.3f  energy ratio: %.3f  (slms applied: %v)\n",
					metrics(reply.Base), metrics(reply.SLMS), reply.Speedup, reply.EnergyRatio, reply.Applied)
				if cli != rendered {
					t.Errorf("slmssim -compare on %v and /v1/schedule differ\n--- cli ---\n%s\n--- endpoint ---\n%s", target, cli, rendered)
				}
			}

			for _, effort := range []string{"", "standard"} {
				args := []string{"-json", file}
				if effort != "" {
					args = []string{"-json", "-optgap", file}
				}
				out, _ := runTool(t, bin["slmslint"], "", args...)
				var cli, reply struct {
					Diagnostics []analysis.Diag  `json:"diagnostics"`
					Summary     analysis.Summary `json:"summary"`
				}
				if err := json.Unmarshal([]byte(out), &cli); err != nil {
					t.Fatal(err)
				}
				post(t, "/v1/explain", server.Request{Source: src, Effort: effort}, &reply)
				if len(cli.Diagnostics) == 0 && len(reply.Diagnostics) == 0 {
					cli.Diagnostics, reply.Diagnostics = nil, nil
				}
				if !reflect.DeepEqual(cli, reply) {
					t.Errorf("slmslint %v and /v1/explain (effort %q) differ\n--- cli ---\n%+v\n--- endpoint ---\n%+v", args, effort, cli, reply)
				}
			}

			out, _ := runTool(t, bin["slmsprof"], "", "-q", "-format", "json", file)
			var cli []*prof.Profile
			if err := json.Unmarshal([]byte(out), &cli); err != nil {
				t.Fatal(err)
			}
			var reply server.ProfileResponse
			post(t, "/v1/profile", server.Request{Source: src}, &reply)
			for _, p := range []*prof.Profile{reply.Base, reply.SLMS} {
				p.Label = filepath.Base(file)
			}
			if want := []*prof.Profile{reply.Base, reply.SLMS}; !reflect.DeepEqual(cli, want) {
				t.Errorf("slmsprof -format json and /v1/profile differ")
			}
		})
	}
}
