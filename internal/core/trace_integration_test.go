package core

import (
	"strings"
	"testing"
	"time"

	"cliz/internal/trace"
)

// TestTraceHooksNilCollectorAllocs guards the no-collector hot path: every
// instrumentation hook the compressor calls must be an allocation-free no-op
// when no collector is attached.
func TestTraceHooksNilCollectorAllocs(t *testing.T) {
	bins := make([]int32, 256)
	lits := make([]float32, 4)
	tu := &tuner{memo: newTuneMemo()}
	allocs := testing.AllocsPerRun(500, func() {
		sp := trace.Begin(nil, "predict")
		sp.EndFull(1, 2, 3, binStats(bins, lits, nil, nil))
		sp = trace.Begin(nil, "entropy")
		sp.EndFull(0, 0, 0, entropyStats(nil, nil))
		trace.Begin(trace.Prefixed(nil, "chunk[0]"), "lossless").EndBytes(4, 5)
		trace.Begin(nil, "tune/search").EndFull(0, 0, 1, tu.stageKVs(nil))
	})
	if allocs != 0 {
		t.Fatalf("nil-collector trace hooks allocate %v times per run", allocs)
	}
}

// TestTraceCompressAccounting asserts the tentpole's bookkeeping contract:
// the per-stage byte counts of a traced compression sum — within header and
// section-framing overhead — to the blob size, and the per-stage wall times
// sum to (at most, and most of) the measured total.
func TestTraceCompressAccounting(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	var rec trace.Recorder
	p := Default(ds)
	opt := Options{Trace: &rec}
	blob, err := Compress(ds, eb, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	stages := rec.Stages()
	var total trace.Stage
	var sectionOut int64
	var sumDur time.Duration
	for _, s := range stages {
		switch s.Name {
		case "total":
			total = s
		case "mask", "classify", "lossless", "literals":
			// The stages whose output lands in the blob.
			sectionOut += s.OutBytes
		}
		if s.Name != "total" {
			sumDur += s.Duration
		}
	}
	if total.Name != "total" || total.OutBytes != int64(len(blob)) {
		t.Fatalf("missing or wrong total record: %+v", total)
	}
	if total.Items != int64(len(ds.Data)) {
		t.Fatalf("total items %d != %d points", total.Items, len(ds.Data))
	}
	// Blob = header + section length varints + recorded section payloads.
	overhead := int64(len(blob)) - sectionOut
	if overhead < 0 || overhead > 128 {
		t.Fatalf("sections %d vs blob %d: %d bytes unaccounted (want ≤ 128 header+framing)",
			sectionOut, len(blob), overhead)
	}
	if sumDur > total.Duration {
		t.Fatalf("stage durations %v exceed measured total %v", sumDur, total.Duration)
	}
	if sumDur < total.Duration/2 {
		t.Fatalf("stage durations %v cover under half the total %v", sumDur, total.Duration)
	}
	// The predict stage must carry the bin-histogram summary.
	found := false
	for _, s := range stages {
		if s.Name == "predict" {
			found = true
			keys := map[string]bool{}
			for _, kv := range s.Extra {
				keys[kv.Key] = true
			}
			for _, want := range []string{"distinct_bins", "entropy_bits", "top1_share", "literals"} {
				if !keys[want] {
					t.Fatalf("predict stage missing %q annotation: %+v", want, s.Extra)
				}
			}
		}
		if s.Name == "entropy" {
			keys := map[string]bool{}
			for _, kv := range s.Extra {
				keys[kv.Key] = true
			}
			if !keys["table_bytes"] || !keys["stream_bytes"] {
				t.Fatalf("entropy stage missing table/stream split: %+v", s.Extra)
			}
		}
	}
	if !found {
		t.Fatal("no predict stage recorded")
	}
}

// TestTracePeriodicPrefixes checks that periodic compression path-qualifies
// template and residual work.
func TestTracePeriodicPrefixes(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	var rec trace.Recorder
	if _, err := Compress(ds, eb, p, Options{Trace: &rec}); err != nil {
		t.Fatal(err)
	}
	var tmpl, res, cls bool
	for _, s := range rec.Stages() {
		if strings.HasPrefix(s.Name, "template/") {
			tmpl = true
		}
		if strings.HasPrefix(s.Name, "residual/") {
			res = true
		}
		if s.Name == "residual/classify" {
			cls = true
		}
	}
	if !tmpl || !res || !cls {
		t.Fatalf("missing periodic prefixes (template=%v residual=%v classify=%v):\n%s",
			tmpl, res, cls, rec.Table())
	}
}

// TestTraceChunkedAndDecode covers the parallel container (chunk[i]/
// prefixes from concurrent workers) and the traced decode path.
func TestTraceChunkedAndDecode(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	var rec trace.Recorder
	blob, err := CompressChunked(ds, eb, Default(ds), Options{Trace: &rec}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := map[string]bool{}
	for _, s := range rec.Stages() {
		if i := strings.IndexByte(s.Name, '/'); i > 0 {
			chunks[s.Name[:i]] = true
		}
	}
	for _, want := range []string{"chunk[0]", "chunk[1]", "chunk[2]"} {
		if !chunks[want] {
			t.Fatalf("missing %s records: have %v", want, chunks)
		}
	}
	var dec trace.Recorder
	data, dims, err := DecompressChunkedTraced(blob, 2, &dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(ds.Data) || !dimsEqual(dims, ds.Dims) {
		t.Fatalf("decode shape %v", dims)
	}
	var sawReconstruct bool
	for _, s := range dec.Stages() {
		if strings.HasSuffix(s.Name, "/reconstruct") {
			sawReconstruct = true
		}
	}
	if !sawReconstruct {
		t.Fatalf("decode trace missing reconstruct stages:\n%s", dec.Table())
	}
	// Plain traced decode of a unit blob.
	unit, err := Compress(ds, eb, Default(ds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec.Reset()
	if _, _, err := DecompressTraced(unit, &dec); err != nil {
		t.Fatal(err)
	}
	agg := dec.Aggregate()
	names := map[string]bool{}
	for _, s := range agg {
		names[s.Name] = true
	}
	for _, want := range []string{"entropy-decode", "literals-decode", "reconstruct", "total"} {
		if !names[want] {
			t.Fatalf("decode trace missing %q: %v", want, names)
		}
	}
}
