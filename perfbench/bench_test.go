package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as a set-up child too, the role
// the benchmark binary takes when a run times its cold set-ups.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		if err := setupChild(spec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of ../BENCHMARK.json the tests check
// against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smokeRun runs a seconds-long benchmark in process and returns its
// standard output.
func smokeRun(t *testing.T, workload string, seed int64, trace bool) string {
	t.Helper()
	var out bytes.Buffer
	cfg := config{Workload: workload, Seed: seed, Seconds: 0.3, Trace: trace, MinOps: 4, Setups: 2, WorkDir: t.TempDir()}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return out.String()
}

// checkSummary parses the last line and checks that every named metric
// is in it with its unit, and printed as its own line too.
func checkSummary(t *testing.T, workload, out string, want []struct{ Name, Unit string }) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s: last line is not the JSON summary: %v", workload, err)
	}
	if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", workload, s.Correct, s.Attempted, s.Failed)
	}
	if len(s.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", workload, len(s.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := s.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", workload, m.Name, got, m.Unit)
			continue
		}
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) == 3 && f[0] == m.Name && f[2] == m.Unit {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %q line with unit %s", workload, m.Name, m.Unit)
		}
	}
}

func TestSmokeEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		checkSummary(t, w.Name, smokeRun(t, w.Name, 3, false), b.EndToEnd)
		out := smokeRun(t, w.Name, 3, true)
		checkSummary(t, w.Name+" traced", out, b.PerLayer)
		if !strings.Contains(out, "# trace overhead:") {
			t.Errorf("%s: traced run printed no overhead line", w.Name)
		}
	}
}

func TestEndToEndPositive(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		out := smokeRun(t, w.Name, 5, false)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var s summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			t.Fatal(err)
		}
		for name, m := range s.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.Name, name, m.Value)
			}
		}
	}
}

// digests returns the per-op digest lines of a run.
func digests(out string) []string {
	var d []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "digest op=") {
			d = append(d, l)
		}
	}
	return d
}

func TestSameSeedSameDigest(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		first := digests(smokeRun(t, w.Name, 7, false))
		second := digests(smokeRun(t, w.Name, 7, false))
		n := min(len(first), len(second))
		if n < 4 {
			t.Fatalf("%s: %d and %d digests, want at least 4", w.Name, len(first), len(second))
		}
		for i := 0; i < n; i++ {
			if first[i] != second[i] {
				t.Errorf("%s: seed 7 op digests differ:\n%s\n%s", w.Name, first[i], second[i])
			}
		}
		other := digests(smokeRun(t, w.Name, 8, false))
		if other[0] == first[0] {
			t.Errorf("%s: seeds 7 and 8 give the same op 0 digest", w.Name)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", ID: 1, Parent: 0, StartNs: 10, EndNs: 40},
		{Name: "b", ID: 2, Parent: 0, StartNs: 30, EndNs: 60}, // overlaps a
		{Name: "c", ID: 3, Parent: 2, StartNs: 35, EndNs: 45},
	}}
	got := tr.layerTimes()
	want := map[string]float64{"op": 50e-6, "a": 30e-6, "b": 20e-6, "c": 10e-6}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self %s = %g ms, want %g", k, got[k], v)
		}
	}
}
