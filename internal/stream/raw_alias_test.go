package stream

import (
	"slices"
	"testing"

	"cliz/internal/core"
	"cliz/internal/lossless"
)

// TestFramesOwnTheirMemory reads every frame of a stream whose sections are
// stored raw, then overwrites the stream bytes: no frame may change.
func TestFramesOwnTheirMemory(t *testing.T) {
	frames := makeFrames(5, 24, 20, 7, 0.9, 0.3)
	cfg := Config{Dims: []int{24, 20}, EB: 1e-2, Interval: 3, Opts: core.Options{Backend: lossless.Raw{}}}
	blob, _ := writeStream(t, cfg, frames)
	got := readAll(t, blob, core.DecompressOptions{})
	want := make([][]float32, len(got))
	for i, f := range got {
		want[i] = slices.Clone(f)
	}
	for i := range blob {
		blob[i] = 0xff
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("frame %d changed with the stream it was read from", i)
		}
	}
}
