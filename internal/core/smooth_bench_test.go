package core

import (
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/predict"
)

// smoothInput is the shape of the cesm-smooth-large benchmark workload at a
// third of its extent: CESM-T at scale 0.1 (26×180×360, 6.7 MB, unmasked,
// beyond L2) under the pinned linear pipeline (identity perm, α 1.25) at
// rel 1e-2. One unit, one bins stream: the round trip's buffers are the
// work copy and bins on compress, the bins and output on decode.
func smoothInput(b *testing.B) (*dataset.Dataset, float64, Pipeline) {
	ds := datagen.CESMT(0.1)
	if err := ds.Validate(); err != nil {
		b.Fatal(err)
	}
	p := Pipeline{Perm: []int{0, 1, 2}, Fusion: grid.NoFusion(3), Fitting: predict.Linear, LevelAlpha: 1.25}
	return ds, ds.AbsErrorBound(1e-2), p
}

// BenchmarkCompressSmooth times Compress (Workers=1) of the smooth input:
//
//	go test -run='^$' -bench=Smooth ./internal/core
func BenchmarkCompressSmooth(b *testing.B) {
	ds, eb, p := smoothInput(b)
	b.SetBytes(int64(len(ds.Data)) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(ds, eb, p, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressSmooth times Decompress of the smooth blob.
func BenchmarkDecompressSmooth(b *testing.B) {
	ds, eb, p := smoothInput(b)
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
