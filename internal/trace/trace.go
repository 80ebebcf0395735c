// Package trace is the observability layer of the compression pipeline: a
// lightweight, allocation-conscious collector of per-stage records (wall
// time, byte counts, item counts and free-form numeric annotations) that the
// core compressor threads through every stage when — and only when — a
// collector is attached. With a nil collector every hook is a no-op that
// performs zero allocations and never reads the clock, so the hot path pays
// nothing for the instrumentation it does not use.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage is one record: a named unit of pipeline work with its cost.
type Stage struct {
	// Name identifies the stage. Nested work is path-qualified with '/',
	// e.g. "template/predict" or "chunk[3]/entropy".
	Name string
	// Duration is the stage's wall time (0 for pure bookkeeping records).
	Duration time.Duration
	// InBytes / OutBytes are the stage's input and output sizes where
	// meaningful (0 otherwise). For coding stages Out < In is the win.
	InBytes  int64
	OutBytes int64
	// Items counts the units processed (points, symbols, chunks...).
	Items int64
	// Extra holds stage-specific numeric annotations (histogram entropy,
	// Huffman table bytes, literal counts...). Nil for most stages.
	Extra []KV
}

// KV is one numeric annotation.
type KV struct {
	Key   string
	Value float64
}

// Collector receives stage records. Implementations must be safe for
// concurrent use: the parallel chunked compressor records from many
// goroutines at once.
type Collector interface {
	Record(s Stage)
}

// Recorder is the standard Collector: a mutex-guarded, append-only list of
// stage records.
type Recorder struct {
	mu     sync.Mutex
	stages []Stage
}

// Record implements Collector. The Extra annotations are copied, not
// retained: a recorded Stage must stay readable by concurrent Stages()
// snapshots even after the producer reuses its scratch KV buffer — the
// pattern a long-lived per-worker trace in a server falls into. Retaining
// the caller's slice here is a data race the moment the caller recycles it
// (caught by TestRecorderScratchReuseRace under -race).
func (r *Recorder) Record(s Stage) {
	if len(s.Extra) > 0 {
		s.Extra = append([]KV(nil), s.Extra...)
	}
	r.mu.Lock()
	r.stages = append(r.stages, s)
	r.mu.Unlock()
}

// Stages returns a copy of the records in arrival order.
func (r *Recorder) Stages() []Stage {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Stage(nil), r.stages...)
}

// Reset clears the records so the recorder can be reused.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.stages = r.stages[:0]
	r.mu.Unlock()
}

// Aggregate merges records whose names share the same base stage (the path
// component after the last '/'), summing durations, bytes and items. The
// result is ordered by descending duration — the profile view.
func (r *Recorder) Aggregate() []Stage {
	return Aggregate(r.Stages())
}

// Aggregate merges stages by base name (see Recorder.Aggregate).
func Aggregate(stages []Stage) []Stage {
	idx := map[string]int{}
	var out []Stage
	for _, s := range stages {
		base := s.Name
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		j, ok := idx[base]
		if !ok {
			idx[base] = len(out)
			out = append(out, Stage{Name: base, Duration: s.Duration,
				InBytes: s.InBytes, OutBytes: s.OutBytes, Items: s.Items})
			continue
		}
		out[j].Duration += s.Duration
		out[j].InBytes += s.InBytes
		out[j].OutBytes += s.OutBytes
		out[j].Items += s.Items
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

// Table renders the raw records as a human-readable stage table.
func (r *Recorder) Table() string { return Table(r.Stages()) }

// Table renders stage records as an aligned text table. Records named
// "total" (or ending in "/total") are separated from the per-stage rows.
func Table(stages []Stage) string {
	if len(stages) == 0 {
		return "(no stages recorded)\n"
	}
	// The % column denominator: the recorded totals when the stages nest
	// under them, otherwise the stage sum (tuning spans run outside the
	// compression total, so the sum can exceed it).
	var total, sum time.Duration
	for _, s := range stages {
		if isTotal(s.Name) {
			total += s.Duration
		} else {
			sum += s.Duration
		}
	}
	if sum > total {
		total = sum
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %6s %12s %12s %10s  %s\n",
		"stage", "time", "%", "in", "out", "items", "notes")
	for _, s := range stages {
		pct := "-"
		if total > 0 && !isTotal(s.Name) {
			pct = fmt.Sprintf("%.1f", 100*float64(s.Duration)/float64(total))
		}
		fmt.Fprintf(&b, "%-28s %10s %6s %12s %12s %10s  %s\n",
			s.Name, fmtDuration(s.Duration), pct,
			fmtBytes(s.InBytes), fmtBytes(s.OutBytes), fmtCount(s.Items),
			fmtExtra(s.Extra))
	}
	return b.String()
}

func isTotal(name string) bool {
	return name == "total" || strings.HasSuffix(name, "/total")
}

func fmtDuration(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func fmtBytes(n int64) string {
	switch {
	case n == 0:
		return "-"
	case n < 1024:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
}

func fmtCount(n int64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

func fmtExtra(kvs []KV) string {
	if len(kvs) == 0 {
		return ""
	}
	parts := make([]string, len(kvs))
	for i, kv := range kvs {
		parts[i] = fmt.Sprintf("%s=%.4g", kv.Key, kv.Value)
	}
	return strings.Join(parts, " ")
}

// maxAggStages bounds an Aggregator's distinct-stage table. Real pipelines
// produce a few dozen base names; anything past the cap (a runaway caller
// generating unique names) folds into a single "other" row so a long-lived
// process cannot leak memory through its metrics.
const maxAggStages = 256

// aggOverflow is the fold-in row for names past the maxAggStages cap.
const aggOverflow = "other"

// Aggregator is the Collector for long-lived processes: instead of the
// Recorder's append-only record list (which grows with every request, fine
// for a CLI run, fatal for a daemon), it merges records by base stage name
// as they arrive — O(distinct stages) memory forever. It is safe for
// concurrent use from any number of recording and reading goroutines; the
// zero value is ready to use.
type Aggregator struct {
	mu    sync.Mutex
	idx   map[string]int
	rows  []Stage
	hits  []int64
	count int64
}

// Record implements Collector: the stage folds into its base-name row.
// Extra annotations are dropped — per-record notes do not aggregate
// meaningfully across requests.
func (a *Aggregator) Record(s Stage) {
	base := s.Name
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.count++
	if a.idx == nil {
		a.idx = make(map[string]int)
	}
	j, ok := a.idx[base]
	if !ok {
		if len(a.rows) >= maxAggStages {
			if j, ok = a.idx[aggOverflow]; !ok {
				j = len(a.rows)
				a.idx[aggOverflow] = j
				a.rows = append(a.rows, Stage{Name: aggOverflow})
				a.hits = append(a.hits, 0)
			}
		} else {
			j = len(a.rows)
			a.idx[base] = j
			a.rows = append(a.rows, Stage{Name: base})
			a.hits = append(a.hits, 0)
		}
	}
	a.rows[j].Duration += s.Duration
	a.rows[j].InBytes += s.InBytes
	a.rows[j].OutBytes += s.OutBytes
	a.rows[j].Items += s.Items
	a.hits[j]++
}

// Count returns the total number of records folded in since the last Reset.
func (a *Aggregator) Count() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count
}

// Snapshot returns the merged rows ordered by descending duration. Each
// row's Extra carries a single "records" annotation: how many raw records
// folded into it.
func (a *Aggregator) Snapshot() []Stage {
	a.mu.Lock()
	out := make([]Stage, len(a.rows))
	for i, r := range a.rows {
		out[i] = r
		out[i].Extra = []KV{{Key: "records", Value: float64(a.hits[i])}}
	}
	a.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

// Reset clears the merged rows so the aggregator can be reused.
func (a *Aggregator) Reset() {
	a.mu.Lock()
	a.idx = nil
	a.rows = nil
	a.hits = nil
	a.count = 0
	a.mu.Unlock()
}

// prefixed qualifies every record's name with a path prefix.
type prefixed struct {
	inner  Collector
	prefix string
}

func (p prefixed) Record(s Stage) {
	s.Name = p.prefix + "/" + s.Name
	p.inner.Record(s)
}

// Prefixed wraps c so every record is path-qualified with prefix. A nil c
// yields nil, keeping the no-collector fast path intact for nested stages.
func Prefixed(c Collector, prefix string) Collector {
	if c == nil {
		return nil
	}
	return prefixed{inner: c, prefix: prefix}
}

// Span measures one stage. The zero Span (from Begin with a nil collector)
// is inert: Stop, End and its variants return immediately without reading
// the clock or allocating.
type Span struct {
	c       Collector
	name    string
	t0      time.Time
	d       time.Duration // the duration frozen by Stop
	stopped bool
}

// Begin starts a span. With a nil collector it returns the zero Span and
// does not read the clock — the nil path is allocation-free (guarded by
// TestSpanNilCollectorAllocs).
func Begin(c Collector, name string) Span {
	if c == nil {
		return Span{}
	}
	return Span{c: c, name: name, t0: time.Now()}
}

// Stop freezes the span's duration; the End call that follows records it
// instead of reading the clock again. Go evaluates EndFull's arguments
// before the call, so a span whose annotations are costly to compute stops
// first and keeps that trace-only work out of its own time:
//
//	sp.Stop()
//	sp.EndFull(in, out, items, expensiveStats())
func (sp *Span) Stop() {
	if sp.c == nil || sp.stopped {
		return
	}
	sp.d = time.Since(sp.t0)
	sp.stopped = true
}

// End records the span with no byte accounting.
func (sp Span) End() { sp.EndFull(0, 0, 0, nil) }

// EndBytes records the span with input/output byte counts.
func (sp Span) EndBytes(in, out int64) { sp.EndFull(in, out, 0, nil) }

// EndFull records the span with full accounting. Collectors copy what they
// keep, so the caller may reuse extra as scratch after EndFull returns.
func (sp Span) EndFull(in, out, items int64, extra []KV) {
	if sp.c == nil {
		return
	}
	d := sp.d
	if !sp.stopped {
		d = time.Since(sp.t0)
	}
	sp.c.Record(Stage{
		Name:     sp.name,
		Duration: d,
		InBytes:  in,
		OutBytes: out,
		Items:    items,
		Extra:    extra,
	})
}
