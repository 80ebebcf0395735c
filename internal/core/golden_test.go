package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/grid"
	"cliz/internal/predict"
)

// goldenCases pins decode-side backward compatibility for the version-1
// on-disk format: every pipeline variant has a committed v1 blob plus its
// expected reconstruction, and the decoder must keep reproducing that
// reconstruction bit-for-bit. The fixtures are frozen: they were written by
// the v1 writer of commit 7dd3323, and the writer has since moved on (v2
// sectioned prediction, v3 integrity checksums), so they are never
// regenerated. The cases record the inputs each blob was made from, which
// checkBound holds the reconstruction against.
var goldenCases = []struct {
	name string
	ds   func() *dataset.Dataset
	pipe func(ds *dataset.Dataset) Pipeline
	opt  Options
	rel  float64
	// chunks > 0 compresses through the parallel container.
	chunks int
}{
	{
		name: "cubic-default",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline { return Default(ds) },
		rel:  1e-2,
	},
	{
		name: "linear-perm-fuse",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline {
			p := Default(ds)
			p.Perm = []int{2, 0, 1}
			p.Fusion = grid.Fusion{Groups: []int{1, 2}}
			p.Fitting = predict.Linear
			return p
		},
		rel: 1e-3,
	},
	{
		name: "lorenzo",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline {
			p := Default(ds)
			p.Fitting = predict.Lorenzo
			return p
		},
		rel: 1e-2,
	},
	{
		name: "classify-alpha",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline {
			p := Default(ds)
			p.Classify = true
			p.LevelAlpha = 1.5
			return p
		},
		rel: 1e-2,
	},
	{
		name: "periodic-mask-classify",
		ds:   smallSSH,
		pipe: func(ds *dataset.Dataset) Pipeline {
			p := Default(ds)
			p.Period = 12
			p.Classify = true
			return p
		},
		rel: 1e-2,
	},
	{
		name: "rans",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline { return Default(ds) },
		opt:  Options{Entropy: entropy.RANS},
		rel:  1e-2,
	},
	{
		name: "chunked",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline { return Default(ds) },
		rel:  1e-2,
		// 3 chunks, exercising the CLZP container framing.
		chunks: 3,
	},
}

func goldenPath(name, ext string) string {
	return filepath.Join("testdata", "golden", name+ext)
}

func TestGoldenFixtures(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds()
			eb := ds.AbsErrorBound(tc.rel)
			blob, err := os.ReadFile(goldenPath(tc.name, ".clz"))
			if err != nil {
				t.Fatalf("%v (v1 fixtures are frozen; do not regenerate)", err)
			}
			wantRaw, err := os.ReadFile(goldenPath(tc.name, ".f32"))
			if err != nil {
				t.Fatal(err)
			}
			var recon []float32
			var dims []int
			if tc.chunks > 0 {
				recon, dims, err = DecompressChunked(blob, 2)
			} else {
				recon, dims, err = Decompress(blob)
			}
			if err != nil {
				t.Fatalf("stored blob no longer decodes: %v", err)
			}
			if !dimsEqual(dims, ds.Dims) {
				t.Fatalf("decoded dims %v, dataset has %v", dims, ds.Dims)
			}
			// Bit-exact: the decoder must reproduce the committed
			// reconstruction down to the last float bit.
			got := floatsToBytes(recon)
			if !bytes.Equal(got, wantRaw) {
				t.Fatalf("decode of %s.clz changed: %s", tc.name, firstFloatDiff(got, wantRaw))
			}
			// And the reconstruction must still respect the error bound
			// against the deterministic source field.
			checkBound(t, ds, recon, eb)
			// A fixture that is not a v1 blob pins nothing of the v1 format:
			// Verify must walk it as intact, version 1 and unchecksummed.
			rep := Verify(blob)
			if !rep.OK() {
				t.Fatalf("Verify rejected an intact v1 fixture:\n%s", rep)
			}
			if rep.Checksummed {
				t.Fatal("Verify claims a v1 blob is checksummed")
			}
			if rep.Version != 1 {
				t.Fatalf("Verify reports version %d for a v1 fixture", rep.Version)
			}
		})
	}
}

func floatsToBytes(data []float32) []byte {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

func firstFloatDiff(got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d bytes", len(got), len(want))
	}
	for i := 0; i+4 <= len(got); i += 4 {
		g := binary.LittleEndian.Uint32(got[i:])
		w := binary.LittleEndian.Uint32(want[i:])
		if g != w {
			return fmt.Sprintf("point %d: got %g (0x%08x), want %g (0x%08x)",
				i/4, math.Float32frombits(g), g, math.Float32frombits(w), w)
		}
	}
	return "no difference (length mismatch?)"
}

// checkBound asserts |recon - orig| <= eb at every valid point, with a tiny
// float32 rounding allowance.
func checkBound(t *testing.T, ds *dataset.Dataset, recon []float32, eb float64) {
	t.Helper()
	valid := ds.Validity()
	tol := eb * (1 + 1e-5)
	for i, v := range ds.Data {
		if valid != nil && !valid[i] {
			continue
		}
		if d := math.Abs(float64(recon[i]) - float64(v)); d > tol {
			t.Fatalf("point %d: |%g - %g| = %g > eb %g", i, recon[i], v, d, eb)
		}
	}
}
