package estimate_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"cliz/internal/core"
	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/estimate"
	"cliz/internal/trace"
)

// The calibration suite grades the estimator against the full tuner on every
// datagen field at scale 0.25 and rel 1e-2: Estimate, then AutoTune, then a
// full-field Compress with the tuned pipeline, whose ratio is the truth the
// estimate is scored against.
const (
	calScale = 0.25
	calRel   = 1e-2

	// maxAvgRatioErrPct caps the average |estimated − tuned| / tuned
	// full-field ratio error over the suite.
	maxAvgRatioErrPct = 15.0
	// minAgreement is the floor on the share of fields whose estimated
	// pipeline structurally matches the tuned one (see knobsMatched).
	minAgreement = 0.5
	// maxEstimateMillis caps the estimator's per-field wall time, best of
	// two runs (BenchmarkEstimateCalibration).
	maxEstimateMillis = 50.0
)

// fusedFields are the fields whose tuned pipelines must compress and decode
// without a materialized transpose: no permute or unpermute span at all.
var fusedFields = map[string]bool{"SSH": true, "Hurricane-T": true, "CESM-T": true}

func calField(tb testing.TB, name string) (*dataset.Dataset, float64) {
	tb.Helper()
	ds, err := datagen.ByName(name, calScale)
	if err != nil {
		tb.Fatal(err)
	}
	return ds, ds.AbsErrorBound(calRel)
}

// knobsMatched counts the agreeing decided knobs of the estimated and tuned
// pipelines (perm, fusion, fitting, classify, period and level-alpha). The
// bool is structural agreement: all of them but the level-alpha ladder rung.
func knobsMatched(est, tuned core.Pipeline) (int, bool) {
	structural := []bool{
		slices.Equal(est.Perm, tuned.Perm),
		est.Fusion.String() == tuned.Fusion.String(),
		est.Fitting == tuned.Fitting,
		est.Classify == tuned.Classify,
		est.Period == tuned.Period,
	}
	n, agree := 0, true
	for _, eq := range structural {
		if eq {
			n++
		}
		agree = agree && eq
	}
	if est.LevelAlpha == tuned.LevelAlpha {
		n++
	}
	return n, agree
}

// permuteSpans lists the recorded permute and unpermute spans, at any
// nesting depth.
func permuteSpans(rec *trace.Recorder) []string {
	var out []string
	for _, s := range rec.Stages() {
		base := s.Name[strings.LastIndexByte(s.Name, '/')+1:]
		if base == "permute" || base == "unpermute" {
			out = append(out, s.Name)
		}
	}
	return out
}

// TestEstimateCalibration enforces the estimator's accuracy gates: average
// ratio error under 15% and structural agreement with AutoTune on at least
// half the fields. On the tuned pipelines of fusedFields it also requires
// the fused index traversal on both sides: a traced compress and decode
// must record no permute or unpermute span.
func TestEstimateCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs AutoTune on every datagen field at scale 0.25")
	}
	var errSum float64
	agreed := 0
	disagreeing := map[string][]string{}
	names := datagen.Names()
	for _, name := range names {
		ds, eb := calField(t, name)
		res, err := estimate.Estimate(ds, eb, estimate.Config{})
		if err != nil {
			t.Fatalf("%s: estimate: %v", name, err)
		}
		tuned, _, err := core.AutoTune(ds, eb, core.TuneConfig{}, core.Options{})
		if err != nil {
			t.Fatalf("%s: tune: %v", name, err)
		}
		var rec trace.Recorder
		blob, err := core.Compress(ds, eb, tuned, core.Options{Trace: &rec})
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		if fusedFields[name] {
			if _, _, err := core.DecompressTraced(blob, &rec); err != nil {
				t.Fatalf("%s: decompress: %v", name, err)
			}
			if spans := permuteSpans(&rec); len(spans) > 0 {
				t.Errorf("%s: tuned pipeline %s ran materialized transposes %v", name, tuned, spans)
			}
		}

		ratio := float64(ds.Points()*4) / float64(len(blob))
		errPct := 100 * math.Abs(res.Ratio-ratio) / ratio
		matched, agree := knobsMatched(res.Pipeline, tuned)
		errSum += errPct
		if agree {
			agreed++
		} else {
			disagreeing[name] = append([]string{"est:   " + res.Pipeline.String(), "tuned: " + tuned.String()}, res.Notes...)
		}
		t.Logf("%-12s ratio %8.2f (tuned %8.2f, err %5.1f%%)  conf %.2f  agree %v (%d/6)",
			name, res.Ratio, ratio, errPct, res.Confidence, agree, matched)
	}

	avg := errSum / float64(len(names))
	rate := float64(agreed) / float64(len(names))
	t.Logf("average ratio error %.1f%%, agreement %.0f%%", avg, 100*rate)
	if avg > maxAvgRatioErrPct {
		t.Errorf("average ratio error %.1f%% exceeds %.0f%%", avg, maxAvgRatioErrPct)
	}
	if rate < minAgreement {
		t.Errorf("pipeline agreement %.0f%% below %.0f%%", 100*rate, 100*minAgreement)
	}
	if t.Failed() {
		for _, name := range names {
			for _, note := range disagreeing[name] {
				t.Logf("%-12s %s", name, note)
			}
		}
	}
}

// BenchmarkEstimateCalibration enforces the estimator's latency gate: on
// every calibration field the faster of two Estimate calls must finish
// within 50 ms. The plan is deterministic, so both calls do the same work
// and the minimum rejects scheduler and GC spikes. It is a benchmark rather
// than a test because `go test ./...` runs packages concurrently, and wall
// time under that load measures the neighbours:
//
//	go test -run='^$' -bench=EstimateCalibration -benchtime=1x ./internal/estimate
func BenchmarkEstimateCalibration(b *testing.B) {
	type field struct {
		name string
		ds   *dataset.Dataset
		eb   float64
	}
	var fields []field
	for _, name := range datagen.Names() {
		ds, eb := calField(b, name)
		fields = append(fields, field{name, ds, eb})
	}
	b.ResetTimer()
	worst := 0.0
	for i := 0; i < b.N; i++ {
		for _, f := range fields {
			best := math.Inf(1)
			for range 2 {
				t0 := time.Now()
				if _, err := estimate.Estimate(f.ds, f.eb, estimate.Config{}); err != nil {
					b.Fatalf("%s: estimate: %v", f.name, err)
				}
				best = min(best, float64(time.Since(t0))/float64(time.Millisecond))
			}
			if best > maxEstimateMillis {
				b.Fatalf("%s: estimate took %.1f ms (best of two), over the %.0f ms gate", f.name, best, maxEstimateMillis)
			}
			worst = max(worst, best)
		}
	}
	b.ReportMetric(worst, "max-ms/field")
}
