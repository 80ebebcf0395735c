// Command bench is the repository's end-to-end benchmark. It runs one of six
// seeded workloads against the codec, the temporal stream, the tuner and
// clizd, checks every output, and prints one JSON result line:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, whose spans are also
// written to .bench_build/spans/. README.md describes the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

const (
	// A run sets its workload up at least setupReps times and until
	// setupMin has passed, at most setupMaxReps times; setup_s is the
	// median, and the last set-up is the one measured.
	setupReps    = 3
	setupMin     = time.Second
	setupMaxReps = 25
	// defaultSeconds is the measured phase when --seconds is not given.
	defaultSeconds = 15
	// procs pins the scheduler to the two cores the benchmark is sized for.
	procs = 2
	// spansDir receives the traced run's spans, one JSONL file per run.
	spansDir = ".bench_build/spans"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, phase: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	res, log, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if log != nil {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, log); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "bench: spans written to %s\n", path)
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "bench: failed: %s\n", f)
	}
	line, err := json.Marshal(res.output)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// config is one invocation's settings.
type config struct {
	seed   int64
	phase  time.Duration
	traced bool
	// small shrinks every input to test size (the package tests only).
	small bool
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	output
	failures []string
}

// run is the state one invocation shares with its workload: the phase
// settings, the operation counts and the samples the workload records.
type run struct {
	config
	// spans collects the traced operations; nil in an untraced run.
	spans     *spanLog
	warming   bool
	attempted int
	failed    int
	failures  []string
	samples   map[string][]float64
}

// maxFailureNotes bounds the failure messages kept for stderr.
const maxFailureNotes = 5

// check counts one checked operation and records err as its failure.
func (r *run) check(op string, err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", op, err))
	}
}

// add records one sample; the warm-up operation records none.
func (r *run) add(key string, v float64) {
	if !r.warming {
		r.samples[key] = append(r.samples[key], v)
	}
}

// log returns the span log for one operation: nil when it runs untraced.
func (r *run) log(traced bool) *spanLog {
	if !traced {
		return nil
	}
	return r.spans
}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

var errNoSamples = errors.New("no operation succeeded")

// instance is a set-up workload.
type instance interface {
	// inputs lists every field the seed generated.
	inputs() []field
	// warm runs one operation outside the measured phase.
	warm(r *run)
	// measure runs the measured phase.
	measure(r *run)
	// metrics derives the run's metrics from the samples: the end-to-end
	// set, or in a traced run the per-layer set.
	metrics(r *run) (map[string]float64, error)
	// close releases what set-up acquired.
	close()
}

// workload is one named input set and traffic shape.
type workload struct {
	name  string
	why   string
	setup func(r *run) (instance, error)
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workload{
	{wSSH, "the only masked, periodic input with a non-identity permutation; entropy is lightest here", setupSSH},
	{wCESM, "42 MB smooth field, far beyond L2: interpolation dominates, lossless is about 1% of the time", setupCESM},
	{wHurricane, "1.5 MB field at a tight bound that fits in L2: entropy and lossless coding dominate", setupHurricane},
	{wStream, "temporal stream writes and reads: 45 of 48 frames are delta-coded and bypass interpolation", setupStream},
	{wTune, "the only workload that runs the tuner's search and the estimator; the others pin their pipelines", setupTune},
	{wClizd, "open-loop Poisson requests to clizd on loopback: admission, body I/O and the tuned-pipeline cache", setupClizd},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// execute sets the workload up repeatedly, warms it up, measures it
// and derives the metrics the configuration asks for. The span log is
// returned for a traced run.
func execute(w workload, cfg config) (*result, *spanLog, error) {
	r := &run{config: cfg, samples: make(map[string][]float64)}
	if cfg.traced {
		r.spans = newSpanLog()
	}
	reps, minSetup := setupReps, setupMin
	if cfg.small {
		reps, minSetup = 1, 0
	}
	var setups []float64
	var inst instance
	for start := time.Now(); len(setups) < reps ||
		(time.Since(start) < minSetup && len(setups) < setupMaxReps); {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(r); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	r.warming = true
	inst.warm(r)
	r.warming = false
	inst.measure(r)
	got, err := inst.metrics(r)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	got["setup_s"] = median(setups)

	res := &result{
		output: output{
			Correct:   r.failed == 0,
			Attempted: r.attempted,
			Failed:    r.failed,
			Metrics:   make(map[string]value),
		},
		failures: r.failures,
	}
	if cfg.traced {
		for _, m := range perLayer {
			// A layer the workload does not exercise did no work: 0.
			res.Metrics[m.Name] = value{got[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := got[m.Name]
			if !ok {
				return nil, nil, fmt.Errorf("%s: metric %s not measured", w.name, m.Name)
			}
			res.Metrics[m.Name] = value{v, m.Unit}
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, nil, fmt.Errorf("%s: metric %s is %v", w.name, name, v.Value)
		}
	}
	if res.Attempted == 0 {
		return nil, nil, errors.New(w.name + ": no operation completed")
	}
	return res, r.spans, nil
}

// closedLoop runs op back to back until the phase ends, at least twice,
// each time from a collected heap so no operation pays for its
// predecessor's garbage. In a traced run every other operation is traced,
// so the untraced ones measure what the tracing costs.
func closedLoop(r *run, op func(traced bool)) {
	deadline := time.Now().Add(r.phase)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		runtime.GC()
		op(r.traced && i%2 == 0)
	}
}

// opKey names the per-operation latency sample of a traced or untraced op.
func opKey(traced bool) string {
	if traced {
		return "op.traced"
	}
	return "op.plain"
}

// overheadPct is how much slower the median traced operation ran than the
// median untraced one.
func overheadPct(r *run) float64 {
	plain := median(r.samples[opKey(false)])
	return 100 * (ratioOf(median(r.samples[opKey(true)]), plain) - 1)
}
