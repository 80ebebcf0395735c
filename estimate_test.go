package cliz_test

import (
	"math"
	"testing"

	"cliz"
)

// TestEstimatePublicAPI checks the fast estimator through the public surface:
// the estimated pipeline must be directly usable with Compress, the report
// must be explainable (notes) and calibrated (confidence in range), and the
// ratio prediction must be in the neighborhood of the measured ratio.
func TestEstimatePublicAPI(t *testing.T) {
	ds := makeTestDataset()
	pipe, rep, err := cliz.Estimate(ds, cliz.Rel(1e-2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confidence < 0 || rep.Confidence > 1 {
		t.Fatalf("confidence %.2f outside [0, 1]", rep.Confidence)
	}
	if len(rep.Notes) == 0 {
		t.Fatal("no notes: the estimate must explain itself")
	}
	if rep.Ratio <= 1 {
		t.Fatalf("predicted ratio %.2f for a compressible field", rep.Ratio)
	}

	// The estimated pipeline compresses and round-trips within the bound.
	blob, info, err := cliz.Compress(ds, cliz.Rel(1e-2), &pipe)
	if err != nil {
		t.Fatalf("estimated pipeline rejected by Compress: %v", err)
	}
	if info.Pipeline != pipe.String() {
		t.Fatalf("info pipeline %q != estimate %q", info.Pipeline, pipe.String())
	}
	recon, _, err := cliz.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := cliz.ValidityOf(ds)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range ds.Data {
		if valid[i] {
			lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
		}
	}
	if got, eb := cliz.MaxAbsErr(ds.Data, recon, valid), 0.01*(hi-lo); got > eb*(1+1e-9) {
		t.Fatalf("bound violated under estimated pipeline: %g > %g", got, eb)
	}

	// The prediction tracks reality within a loose factor — this is a sanity
	// check, not the calibration gate (internal/estimate's
	// TestEstimateCalibration owns that).
	if rep.Ratio < info.Ratio/3 || rep.Ratio > info.Ratio*3 {
		t.Errorf("predicted ratio %.1f vs measured %.1f: off by more than 3x", rep.Ratio, info.Ratio)
	}
}

// TestEstimateHonorsTuneOptions: search-space restrictions must bind the
// estimate exactly as they bind AutoTune.
func TestEstimateHonorsTuneOptions(t *testing.T) {
	ds := makeTestDataset() // period-12 seasonal signal
	pipe, rep, err := cliz.Estimate(ds, cliz.Rel(1e-2), &cliz.TuneOptions{DisablePeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Period != 0 {
		t.Errorf("DisablePeriod: estimated period %d", rep.Period)
	}
	if _, _, err := cliz.Compress(ds, cliz.Rel(1e-2), &pipe); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateFirstTune drives both sides of the EstimateFirst fallback by
// bracketing the estimator's own confidence with the acceptance threshold.
func TestEstimateFirstTune(t *testing.T) {
	ds := makeTestDataset()
	_, rep, err := cliz.Estimate(ds, cliz.Rel(1e-2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confidence <= 0 {
		t.Fatalf("estimator has no confidence (%.2f) in the test field; the bracketing below needs some", rep.Confidence)
	}

	// Threshold below the confidence: the estimate answers, no search.
	pipe, tr, err := cliz.AutoTune(ds, cliz.Rel(1e-2),
		&cliz.TuneOptions{EstimateFirst: true, MinConfidence: rep.Confidence / 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Mode != "estimate" {
		t.Fatalf("mode %q, want estimate (confidence %.2f, threshold %.2f)", tr.Mode, tr.Confidence, rep.Confidence/2)
	}
	if tr.PipelinesTested != 0 {
		t.Errorf("estimate mode tested %d pipelines; the search should have been skipped", tr.PipelinesTested)
	}
	if tr.Confidence < rep.Confidence/2 {
		t.Errorf("accepted below its own threshold: %.2f < %.2f", tr.Confidence, rep.Confidence/2)
	}
	if _, _, err := cliz.Compress(ds, cliz.Rel(1e-2), &pipe); err != nil {
		t.Fatal(err)
	}

	// Threshold above the confidence: full search, mode "search".
	if rep.Confidence < 0.995 {
		_, tr, err = cliz.AutoTune(ds, cliz.Rel(1e-2),
			&cliz.TuneOptions{SamplingRate: 0.05, EstimateFirst: true, MinConfidence: rep.Confidence + 0.005})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Mode != "search" {
			t.Fatalf("mode %q, want search fallback below the confidence threshold", tr.Mode)
		}
		if tr.PipelinesTested == 0 {
			t.Error("search fallback tested no pipelines")
		}
	}

	// Without EstimateFirst the report says "search" — the mode is always
	// filled so clizd can label its decisions.
	_, tr, err = cliz.AutoTune(ds, cliz.Rel(1e-2), &cliz.TuneOptions{SamplingRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Mode != "search" {
		t.Fatalf("plain AutoTune mode %q, want search", tr.Mode)
	}
}
