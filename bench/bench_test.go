package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode holds BENCHMARK.json to the tables the
// benchmark itself uses, so the file and the program cannot drift apart.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(layerMetricNames) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(layerMetricNames))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for i, m := range bf.PerLayer {
		if m.Name != layerMetricNames[i] || m.Unit != layerUnit(m.Name) {
			t.Errorf("per-layer metric %d is %+v, the program has %s in %s", i, m, layerMetricNames[i], layerUnit(layerMetricNames[i]))
		}
		if !name.MatchString(m.Name) {
			t.Errorf("per-layer metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
		}
	}
}

// tinyRun runs the benchmark in process at tiny scale and returns what it
// printed and the -json report.
func tinyRun(t *testing.T, extra ...string) (string, report) {
	t.Helper()
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	args := append([]string{"-scale", "tiny", "-seconds", "0", "-out", dir, "-json", jsonPath}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return stdout.String(), rep
}

// TestSmoke runs all four workloads twice at tiny scale: every metric
// BENCHMARK.json names is printed exactly once per workload, nothing
// failed, and the two runs' exact counts and digests agree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark at tiny scale")
	}
	bf := readBenchmarkFile(t)
	out, first := tinyRun(t)
	_, second := tinyRun(t)

	sections := strings.Split(out, "\n== ")[1:]
	if len(sections) != len(workloadNames) {
		t.Fatalf("%d workload sections in the output, want %d", len(sections), len(workloadNames))
	}
	for i, sec := range sections {
		if !strings.HasPrefix(sec, workloadNames[i]+" ==") {
			t.Errorf("section %d starts %q, want workload %s", i, strings.SplitN(sec, "\n", 2)[0], workloadNames[i])
		}
		printed := map[string]int{}
		for _, line := range strings.Split(sec, "\n") {
			if f := strings.Fields(line); len(f) == 3 {
				printed[f[0]]++
			}
		}
		for _, m := range bf.EndToEnd {
			if printed[m.Name] != 1 {
				t.Errorf("%s: end-to-end metric %s printed %d times", workloadNames[i], m.Name, printed[m.Name])
			}
		}
		for _, m := range bf.PerLayer {
			if printed[m.Name] != 1 {
				t.Errorf("%s: per-layer metric %s printed %d times", workloadNames[i], m.Name, printed[m.Name])
			}
		}
	}

	for i, r := range first.Workloads {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		for _, m := range bf.EndToEnd {
			if r.E2E[m.Name] <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", r.Workload, m.Name, r.E2E[m.Name])
			}
		}
		if r.Counts != second.Workloads[i].Counts {
			t.Errorf("%s: counts differ between two runs of one seed: %+v and %+v", r.Workload, r.Counts, second.Workloads[i].Counts)
		}
		if r.Attempted != second.Workloads[i].Attempted {
			t.Errorf("%s: attempted %d then %d", r.Workload, r.Attempted, second.Workloads[i].Attempted)
		}
	}
}

// TestResultLine checks the last line of a one-workload run: one JSON
// object with the end-to-end metrics under -trace 0 and the per-layer
// metrics under -trace 1.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload at tiny scale")
	}
	for trace, want := range map[string]int{"0": len(endToEnd), "1": len(layerMetricNames)} {
		out, _ := tinyRun(t, "-workload", "served_mixed", "-trace", trace)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var line struct {
			Correct   *bool                 `json:"correct"`
			Attempted *int                  `json:"attempted"`
			Failed    *int                  `json:"failed"`
			Metrics   map[string]metricJSON `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("-trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("-trace %s: last line %q", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != want {
			t.Errorf("-trace %s: %d metrics on the last line, want %d", trace, len(line.Metrics), want)
		}
	}
}

// TestModeBoundaryAssertion rigs a 5 % slow share, which puts the 95th
// percentile exactly on the boundary between the two latency modes.
func TestModeBoundaryAssertion(t *testing.T) {
	if err := checkModeBoundaries([]float64{0.95}); err == nil {
		t.Error("a 5 % slow share must trip the assertion: p95 lies on the boundary")
	}
	if err := checkModeBoundaries([]float64{0.52}); err == nil {
		t.Error("a 48 % slow share must trip the assertion: p50 lies within 3 points of the boundary")
	}
	for _, ok := range [][]float64{nil, {0.84}, {0.995}, {0.535}} {
		if err := checkModeBoundaries(ok); err != nil {
			t.Errorf("boundaries %v: %v", ok, err)
		}
	}
}
