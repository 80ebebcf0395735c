package core

import (
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/grid"
)

func TestNudgeBlockToValid(t *testing.T) {
	// Validity lives only in the top band of a 2D grid; a centre block must
	// be nudged up into it.
	dims := []int{40, 20}
	valid := make([]bool, 800)
	for i := 0; i < 8*20; i++ {
		valid[i] = true // rows 0..7 valid
	}
	b := grid.Block{Origin: []int{16, 6}, Size: []int{8, 8}}
	nb := nudgeBlockToValid(b, dims, valid)
	count := 0
	for _, ok := range grid.Extract(valid, dims, nb) {
		if ok {
			count++
		}
	}
	if count == 0 {
		t.Fatalf("nudged block still empty: %+v", nb)
	}
	if nb.Origin[0] != 0 {
		t.Fatalf("expected block at the valid band, got origin %v", nb.Origin)
	}
	if nb.Size[0] != 8 || nb.Size[1] != 8 {
		t.Fatalf("size changed: %v", nb.Size)
	}
}

func TestNudgeKeepsMostlyValidBlocks(t *testing.T) {
	dims := []int{10, 10}
	valid := make([]bool, 100)
	for i := range valid {
		valid[i] = true
	}
	b := grid.Block{Origin: []int{2, 2}, Size: []int{4, 4}}
	nb := nudgeBlockToValid(b, dims, valid)
	if nb.Origin[0] != 2 || nb.Origin[1] != 2 {
		t.Fatalf("fully valid block moved: %v", nb.Origin)
	}
}

func TestSamplingFindsValidDataOnBandedMask(t *testing.T) {
	// A Tsfc-like polar mask: the paper's 1/3–2/3 sample centres land in
	// fully-masked mid-latitudes, so without nudging the tuner would rank
	// pipelines on an empty sample.
	ds := datagen.Tsfc(0.1)
	period := DetectPeriod(ds, 10)
	for _, smp := range []sample{
		sampleConcat(ds, ds.Validity(), 0.01, period),
		sampleCentral(ds, ds.Validity(), 0.08, period),
	} {
		if smp.valid == nil {
			t.Fatal("no validity on masked dataset")
		}
		n := 0
		for _, ok := range smp.valid {
			if ok {
				n++
			}
		}
		if frac := float64(n) / float64(len(smp.valid)); frac < 0.1 {
			t.Fatalf("sample nearly empty: %.1f%% valid", frac*100)
		}
	}
}

func TestTunedBeatsOrMatchesSZ3Config(t *testing.T) {
	// SZ3's configuration (natural order, no mask, flat bound) is inside
	// CliZ's search space, so a tuned CliZ should not produce a much larger
	// blob than the mask-less default on the full dataset. Sampling noise is
	// inherent (the paper's own Table IV reports up to 17% loss at low
	// rates), so allow 10%.
	for _, name := range []string{"Tsfc", "Hurricane-T"} {
		ds, err := datagen.ByName(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		eb := ds.AbsErrorBound(1e-2)
		best, _, err := AutoTune(ds, eb, TuneConfig{SamplingRate: 0.01}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := Compress(ds, eb, best, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain := Default(ds)
		plain.UseMask = false
		base, err := Compress(ds, eb, plain, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(len(tuned)) > 1.10*float64(len(base)) {
			t.Fatalf("%s: tuned %d bytes worse than untuned default %d",
				name, len(tuned), len(base))
		}
	}
}
