package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches checks that the repository's BENCHMARK.json
// names workloads this command runs, and exactly the metrics it
// reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	for _, tc := range []struct {
		what string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.spec) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", tc.what, len(tc.spec), len(tc.defs))
			continue
		}
		for i, m := range tc.spec {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, command %s %s", tc.what, i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that the result line carries every named metric with its unit.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server and every workload")
	}
	dir := t.TempDir()
	server := filepath.Join(dir, "stmkv")
	if out, err := exec.Command("go", "build", "-o", server, "repro/cmd/stmkv").CombinedOutput(); err != nil {
		t.Fatalf("build stmkv: %v\n%s", err, out)
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := &config{workload: name, seed: 7, seconds: 2, trace: trace, server: server, workdir: dir}
			rep := newReport()
			if err := run(cfg, rep); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out bytes.Buffer
			if code := rep.print(&out, trace); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result %+v", name, trace, res)
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s is %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", name, d.name, m.Value)
				}
			}
		}
	}
}
