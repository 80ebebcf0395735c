package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// smoke is the test-size configuration: small inputs and a 200 ms phase.
func smoke(seed int64, traced bool) config {
	return config{seed: seed, phase: 200 * time.Millisecond, traced: traced, small: true}
}

// benchmarkFile is BENCHMARK.json, decoded strictly.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSmoke runs every workload at test size, untraced and traced, and
// checks that exactly the metrics BENCHMARK.json declares for the mode are
// reported, each finite and with its declared unit, and that no operation
// failed.
func TestSmoke(t *testing.T) {
	spec := loadBenchmark(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			declared := spec.EndToEnd
			mode := "end-to-end"
			if traced {
				declared, mode = spec.PerLayer, "per-layer"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				res, _, err := execute(w, smoke(1, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d: %s",
						res.Correct, res.Attempted, res.Failed, strings.Join(res.failures, "; "))
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not reported", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("%s in %q, declared %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", m.Name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", m.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestCLIRejectsBadArguments: a usage error prints no result.
func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", wSSH, "--trace", "2"},
		{"--workload", wSSH, "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
