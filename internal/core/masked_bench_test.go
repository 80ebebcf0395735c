package core

import (
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/predict"
)

// maskedPeriodicInput is the shape of the ssh-periodic-masked benchmark
// workload: a centred 264×96×80 crop of SSH at scale 0.3 (8.1 MB, land
// masked) under the pinned periodic pipeline (period 12, perm [2,0,1],
// cubic, α 1.25) at rel 1e-2.
func maskedPeriodicInput(b *testing.B) (*dataset.Dataset, float64, Pipeline) {
	src := datagen.SSH(0.3)
	crop := []int{264, 96, 80}
	origin := make([]int, 3)
	for i, d := range src.Dims {
		origin[i] = (d - crop[i]) / 2
	}
	origin[0] -= origin[0] % 12 // keep the annual phase
	regions := grid.Extract(src.Mask.Regions, src.Dims[1:], grid.Block{Origin: origin[1:], Size: crop[1:]})
	ds := &dataset.Dataset{
		Name:      "SSH-crop",
		Data:      grid.Extract(src.Data, src.Dims, grid.Block{Origin: origin, Size: crop}),
		Dims:      crop,
		Lead:      src.Lead,
		Periodic:  true,
		Mask:      mask.New(crop[1], crop[2], regions),
		FillValue: src.FillValue,
	}
	if err := ds.Validate(); err != nil {
		b.Fatal(err)
	}
	p := Pipeline{Perm: []int{2, 0, 1}, Fusion: grid.NoFusion(3), Fitting: predict.Cubic,
		UseMask: true, Period: 12, LevelAlpha: 1.25}
	return ds, ds.AbsErrorBound(1e-2), p
}

// BenchmarkCompressMaskedPeriodic times Compress (Workers=1) of the
// masked periodic input:
//
//	go test -run='^$' -bench=MaskedPeriodic ./internal/core
func BenchmarkCompressMaskedPeriodic(b *testing.B) {
	ds, eb, p := maskedPeriodicInput(b)
	b.SetBytes(int64(len(ds.Data)) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(ds, eb, p, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressMaskedPeriodic times Decompress of the masked
// periodic blob: mask parse and permuted validity, entropy decode,
// template and residual reconstruction, compose and one fill pass.
func BenchmarkDecompressMaskedPeriodic(b *testing.B) {
	ds, eb, p := maskedPeriodicInput(b)
	blob, err := Compress(ds, eb, p, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(ds.Data)) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}
