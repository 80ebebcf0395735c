package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cliz/internal/core"
	"cliz/internal/entropy"
)

// TestStreamDigests pins the bytes of a 6-frame CLZS stream (two keyframes,
// four delta frames) under each entropy coder, so the delta-frame encoder
// path is covered by an exact-output check.
func TestStreamDigests(t *testing.T) {
	frames := makeFrames(6, 40, 36, 21, 0.9, 0.3)
	want := map[string]string{
		"huffman": "9b85147e2f02d5e3c5a9a33362195b63e88a6678abd2d1d17c216f0a68dd73dd",
		"rans":    "eb2d96cf7e056d9f023eeea584218c99c7f6dc9ac9fd91e9b902015ede83984e",
	}
	for name, kind := range map[string]entropy.Kind{"huffman": entropy.Huffman, "rans": entropy.RANS} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Dims: []int{40, 36}, EB: 1e-2, Interval: 3, Opts: core.Options{Entropy: kind, Workers: 1}}
			blob, infos := writeStream(t, cfg, frames)
			deltas := 0
			for _, in := range infos {
				if in.Kind == KindDelta {
					deltas++
				}
			}
			if deltas != 4 {
				t.Fatalf("%d delta frames, want 4", deltas)
			}
			s := sha256.Sum256(blob)
			if got := hex.EncodeToString(s[:]); got != want[name] {
				t.Errorf("digest %s, want %s", got, want[name])
			}
		})
	}
}
