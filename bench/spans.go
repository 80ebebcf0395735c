package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cliz/internal/trace"
)

// span is one traced interval. The benchmark opens a span around every
// public call it makes; the stage records the codec already emits into an
// attached trace.Collector become that span's children.
type span struct {
	Op     int                `json:"op"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	In     int64              `json:"in,omitempty"`
	Out    int64              `json:"out,omitempty"`
	Items  int64              `json:"items,omitempty"`
	Extra  map[string]float64 `json:"extra,omitempty"`
	// stage marks a record emitted by the codec rather than the benchmark.
	stage bool
}

// spanLog keeps a traced run's spans in memory until the run ends. It is
// the trace.Collector attached to every traced codec call. A nil *spanLog
// is an untraced operation: every method is a no-op.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	op    int // the operation spans are attributed to
	open  int // the benchmark span stage records nest under
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) micros(t time.Time) float64 { return float64(t.Sub(l.t0)) / 1e3 }

// collector returns l as the codec's trace hook, or a nil interface for an
// untraced operation (a typed nil would not be nil to the codec).
func (l *spanLog) collector() trace.Collector {
	if l == nil {
		return nil
	}
	return l
}

// Record implements trace.Collector: a codec stage, which ended now.
func (l *spanLog) Record(s trace.Stage) {
	end := time.Now()
	var extra map[string]float64
	if len(s.Extra) > 0 {
		extra = make(map[string]float64, len(s.Extra))
		for _, kv := range s.Extra {
			extra[kv.Key] = kv.Value
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Op: l.op, ID: len(l.spans) + 1, Parent: l.open, Name: s.Name,
		Start: l.micros(end.Add(-s.Duration)), End: l.micros(end),
		In: s.InBytes, Out: s.OutBytes, Items: s.Items, Extra: extra, stage: true,
	})
}

// beginOp starts attributing spans to the next operation.
func (l *spanLog) beginOp() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.op++
	l.mu.Unlock()
}

// openSpan is a benchmark span in progress.
type openSpan struct {
	id    int
	start time.Time
}

// begin opens a benchmark span; codec stages recorded until its end nest
// under it. Only single-goroutine workloads nest; clizd adds whole spans.
func (l *spanLog) begin(name string) openSpan {
	if l == nil {
		return openSpan{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Op: l.op, ID: len(l.spans) + 1, Name: name})
	l.open = len(l.spans)
	return openSpan{id: l.open, start: time.Now()}
}

// end closes a benchmark span with its input and output byte counts.
func (l *spanLog) end(sp openSpan, in, out int64) {
	if l == nil {
		return
	}
	end := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[sp.id-1]
	s.Start, s.End, s.In, s.Out = l.micros(sp.start), l.micros(end), in, out
	l.open = 0
}

// add records a finished benchmark span and returns its id.
func (l *spanLog) add(op, parent int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: l.micros(start), End: l.micros(end)})
	return id
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, l *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %s: %w", path, err)
	}
	return nil
}

// stageSum accumulates the codec stage records of one base stage name.
type stageSum struct {
	records int
	dur     time.Duration
	in      int64
	out     int64
	items   int64
	extra   map[string]float64
}

// layers is the per-stage accounting the codec-layer metrics derive from:
// stage totals by base name (the part after the last '/', so nested
// template/ and residual/ work folds in), plus the raw megabytes that went
// through the traced encode and decode calls.
type layers struct {
	stages map[string]*stageSum
	encMB  float64
	decMB  float64
	ops    int
}

// encodeCalls and decodeCalls name the benchmark spans whose raw bytes the
// per-MB layer times are normalized by.
var (
	encodeCalls = map[string]bool{"compress": true, "append": true}
	decodeCalls = map[string]bool{"decompress": true, "read": true}
)

// layersOf folds a span log into layers.
func layersOf(l *spanLog) *layers {
	ly := &layers{stages: make(map[string]*stageSum)}
	if l == nil {
		return ly
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := map[int]bool{}
	for _, s := range l.spans {
		ops[s.Op] = true
		switch {
		case !s.stage && encodeCalls[s.Name]:
			ly.encMB += float64(s.In) / 1e6
		case !s.stage && decodeCalls[s.Name]:
			ly.decMB += float64(s.Out) / 1e6
		case s.stage:
			ly.addStage(s.Name, time.Duration((s.End-s.Start)*1e3), s.In, s.Out, s.Items, s.Extra)
		}
	}
	ly.ops = len(ops)
	return ly
}

func (ly *layers) addStage(name string, d time.Duration, in, out, items int64, extra map[string]float64) {
	if strings.HasPrefix(name, "tune/") {
		return // the tuner's own stages run outside any codec call
	}
	if in == 0 && out == 0 && items == 0 {
		return // an empty stage, such as the mask stage decoding an unmasked blob
	}
	base := name
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	st := ly.stages[base]
	if st == nil {
		st = &stageSum{extra: make(map[string]float64)}
		ly.stages[base] = st
	}
	st.records++
	st.dur += d
	st.in += in
	st.out += out
	st.items += items
	for k, v := range extra {
		if k == "entropy_bits" {
			v *= float64(items) // averaged per bin below
		}
		st.extra[k] += v
	}
}

func (ly *layers) ms(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		if st := ly.stages[n]; st != nil {
			d += st.dur
		}
	}
	return float64(d) / 1e6
}

func (ly *layers) stage(name string) *stageSum {
	if st := ly.stages[name]; st != nil {
		return st
	}
	return &stageSum{extra: map[string]float64{}}
}

// Stage names the codec records (internal/core).
var (
	encodeStages = []string{"predict", "predict-fanout", "entropy", "lossless", "literals",
		"mask", "classify", "template-build", "residual-build", "permute", "unpermute"}
	decodeStages = []string{"reconstruct", "reconstruct-fanout", "entropy-decode",
		"literals-decode", "compose", "verify-bound"}
)

// codecMetrics derives the metrics of the codec layers (interp, entropy,
// lossless, mask, grid and core's own time) from the stage totals.
func (ly *layers) codecMetrics() map[string]float64 {
	pred := ly.stage("predict")
	lossless := ly.stage("lossless")
	children := ly.ms(encodeStages...) + ly.ms(decodeStages...)
	// Mask work on decode happens inside the "mask" stage too; it is
	// normalized by all raw MB through the codec, both directions.
	allMB := ly.encMB + ly.decMB
	return map[string]float64{
		"interp.predict_ms_per_mb":     ratioOf(ly.ms("predict", "predict-fanout"), ly.encMB),
		"interp.reconstruct_ms_per_mb": ratioOf(ly.ms("reconstruct", "reconstruct-fanout"), ly.decMB),
		"interp.literals_per_mpt":      ratioOf(pred.extra["literals"]*1e6, float64(pred.items)),
		"interp.bin_entropy_bits":      ratioOf(pred.extra["entropy_bits"], float64(pred.items)),
		"entropy.encode_ms_per_mb":     ratioOf(ly.ms("entropy"), ly.encMB),
		"entropy.decode_ms_per_mb":     ratioOf(ly.ms("entropy-decode"), ly.decMB),
		"entropy.table_bytes":          ratioOf(ly.stage("entropy").extra["table_bytes"], float64(ly.ops)),
		"entropy.stream_bytes":         ratioOf(ly.stage("entropy").extra["stream_bytes"], float64(ly.ops)),
		"lossless.encode_ms_per_mb":    ratioOf(ly.ms("lossless", "literals"), ly.encMB),
		"lossless.out_in_ratio":        ratioOf(float64(lossless.out), float64(lossless.in)),
		"mask.ms_per_mb":               ratioOf(ly.ms("mask"), allMB),
		"core.periodic_ms_per_mb":      ratioOf(ly.ms("template-build", "residual-build", "compose"), allMB),
		"core.self_ms_per_mb":          ratioOf(ly.ms("total")-children, allMB),
		"grid.permute_count":           ratioOf(float64(ly.count("permute", "unpermute")), float64(ly.ops)),
	}
}

// count returns how many records of the named stages were folded in.
func (ly *layers) count(names ...string) int {
	n := 0
	for _, name := range names {
		if st := ly.stages[name]; st != nil {
			n += st.records
		}
	}
	return n
}
