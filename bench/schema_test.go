package main

import (
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.][A-Za-z0-9_./-]{0,199}$`)
)

// maxBound is the largest regression bound an end-to-end metric may carry.
const maxBound = 0.25

// TestBenchmarkSchema checks BENCHMARK.json against the limits a benchmark
// definition must keep, and against the workload and metric tables the
// benchmark's code reports from.
func TestBenchmarkSchema(t *testing.T) {
	b := loadBenchmark(t)

	if strings.Join(b.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %q", b.Command)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %q", b.Paths)
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default phase is %d", b.RunSeconds, defaultSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why %q", w.Name, w.Why)
		}
	}
	largest := 0.0
	for _, m := range b.EndToEnd {
		name(m.Name)
		checkMetric(t, m)
		switch {
		case m.Bound == nil:
			t.Errorf("%s has no bound", m.Name)
		case *m.Bound <= 0 || *m.Bound > maxBound:
			t.Errorf("%s bound %v, want (0, %v]", m.Name, *m.Bound, maxBound)
		default:
			largest = max(largest, *m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		checkMetric(t, m)
		if m.Bound != nil {
			t.Errorf("per-layer %s carries a bound", m.Name)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound != nil && *m.Bound == largest
		}
	}
	if !setup {
		t.Error("setup_s must be in s, lower is better, with the largest bound")
	}

	// The file and the code's tables agree, in order.
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i] != (jsonWorkload{w.name, w.why}) {
			t.Errorf("workload %d: file %+v, code %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: file %d/%d, code %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		f := b.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound == nil || *f.Bound != m.Bound {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, f, m)
		}
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for i, m := range perLayer {
		f := b.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per-layer %d: file %+v, code %+v", i, f, m.metric)
		}
		// Every layer metric names the end-to-end metric it should move and
		// the workloads where its layer works.
		if !e2e[m.target] {
			t.Errorf("%s targets unknown end-to-end metric %q", m.Name, m.target)
		}
		if len(m.workloads) == 0 {
			t.Errorf("%s names no workload", m.Name)
		}
		for _, w := range m.workloads {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s names unknown workload %q", m.Name, w)
			}
		}
	}
}

func checkMetric(t *testing.T, m jsonMetric) {
	t.Helper()
	if !unitRE.MatchString(m.Unit) {
		t.Errorf("%s: unit %q", m.Name, m.Unit)
	}
	if m.Better != "higher" && m.Better != "lower" {
		t.Errorf("%s: better %q", m.Name, m.Better)
	}
}
