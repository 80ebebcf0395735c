// Package scripts holds the tests of the repository's shell scripts.
package scripts

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// gatedWorkloads are the archive workloads that bench_gates.sh grades for
// materialized transposes, entropy-decode time and allocation.
var gatedWorkloads = []string{"ssh-periodic-masked", "cesm-smooth-large", "hurricane-tight"}

func workloadNames(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	return names
}

// cleanEntropy holds passing entropy figures per gated workload, in ms/MB:
// the largest of the latest five traced runs behind the ceilings in
// bench_gates.sh, so every one sits under its own workload's ceiling and
// none has to pass another's.
var cleanEntropy = map[string]struct{ decode, encode float64 }{
	"ssh-periodic-masked": {1.62, 0.96},
	"cesm-smooth-large":   {0.40, 0.79},
	"hurricane-tight":     {2.79, 1.86},
}

// cleanLine is a passing last line of a traced bench/run.sh run of
// workload w.
func cleanLine(w string) map[string]any {
	e := cleanEntropy[w]
	return map[string]any{
		"correct":   true,
		"attempted": 10,
		"failed":    0,
		"metrics": map[string]any{
			"grid.permute_count":             map[string]any{"value": 0},
			"entropy.decode_ms_per_mb":       map[string]any{"value": e.decode},
			"entropy.encode_ms_per_mb":       map[string]any{"value": e.encode},
			"core.compress_alloc_b_per_pt":   map[string]any{"value": 8.0},
			"core.decompress_alloc_b_per_pt": map[string]any{"value": 8.0},
		},
	}
}

func metric(line map[string]any, name string) map[string]any {
	return line["metrics"].(map[string]any)[name].(map[string]any)
}

// TestBenchGates runs bench_gates.sh on synthetic bench/ results: a clean
// set passes, and each gate fails on the one line that breaks it, naming
// the workload and the gate.
func TestBenchGates(t *testing.T) {
	for _, tool := range []string{"bash", "jq"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("bench_gates.sh needs %s: %v", tool, err)
		}
	}
	names := workloadNames(t)
	cases := []struct {
		name     string
		workload string
		edit     func(line map[string]any) // nil removes the workload's result
		want     string                    // "" expects a pass
	}{
		{"clean", "", nil, ""},
		{"incorrect", "tune-cold", func(l map[string]any) { l["correct"] = false }, "FAIL tune-cold: incorrect or failed operations"},
		{"failed-ops", "clizd-mixed", func(l map[string]any) { l["failed"] = 1 }, "FAIL clizd-mixed: incorrect or failed operations"},
		{"missing-result", "stream-temporal", nil, "FAIL stream-temporal: incorrect or failed operations"},
		{"permute-regression", "cesm-smooth-large", func(l map[string]any) { metric(l, "grid.permute_count")["value"] = 2 },
			"FAIL cesm-smooth-large: grid.permute_count is not 0"},
		{"entropy-decode-regression", "hurricane-tight", func(l map[string]any) { metric(l, "entropy.decode_ms_per_mb")["value"] = 1e6 },
			"FAIL hurricane-tight: entropy.decode_ms_per_mb over"},
		{"entropy-decode-over-rule", "cesm-smooth-large", func(l map[string]any) { metric(l, "entropy.decode_ms_per_mb")["value"] = 0.61 },
			"FAIL cesm-smooth-large: entropy.decode_ms_per_mb over"},
		{"entropy-encode-regression", "cesm-smooth-large", func(l map[string]any) {
			metric(l, "entropy.encode_ms_per_mb")["value"] = 2 * cleanEntropy["cesm-smooth-large"].encode
		},
			"FAIL cesm-smooth-large: entropy.encode_ms_per_mb over"},
		{"entropy-encode-missing", "hurricane-tight", func(l map[string]any) { delete(l["metrics"].(map[string]any), "entropy.encode_ms_per_mb") },
			"FAIL hurricane-tight: entropy.encode_ms_per_mb over"},
		{"entropy-decode-missing", "ssh-periodic-masked", func(l map[string]any) { delete(l["metrics"].(map[string]any), "entropy.decode_ms_per_mb") },
			"FAIL ssh-periodic-masked: entropy.decode_ms_per_mb over"},
		{"compress-alloc-over-ceiling", "cesm-smooth-large", func(l map[string]any) { metric(l, "core.compress_alloc_b_per_pt")["value"] = 12.2 },
			"FAIL cesm-smooth-large: core.compress_alloc_b_per_pt over"},
		{"decompress-alloc-over-ceiling", "ssh-periodic-masked", func(l map[string]any) { metric(l, "core.decompress_alloc_b_per_pt")["value"] = 12.8 },
			"FAIL ssh-periodic-masked: core.decompress_alloc_b_per_pt over"},
		{"decompress-alloc-missing", "hurricane-tight", func(l map[string]any) { delete(l["metrics"].(map[string]any), "core.decompress_alloc_b_per_pt") },
			"FAIL hurricane-tight: core.decompress_alloc_b_per_pt over"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, w := range names {
				line := cleanLine(w)
				if w == tc.workload {
					if tc.edit == nil {
						continue
					}
					tc.edit(line)
				}
				raw, err := json.Marshal(line)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, w+".json"), append(raw, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out, err := exec.Command("bash", "bench_gates.sh", dir).CombinedOutput()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("clean results failed the gates: %v\n%s", err, out)
				}
				for _, w := range gatedWorkloads {
					if !strings.Contains(string(out), w+": permute_count 0,") {
						t.Errorf("no permute_count report for %s:\n%s", w, out)
					}
				}
				return
			}
			if err == nil {
				t.Fatalf("gates passed, want %q:\n%s", tc.want, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
			if n := strings.Count(string(out), "FAIL "); n != 1 {
				t.Errorf("%d failures reported, want 1:\n%s", n, out)
			}
		})
	}
}
