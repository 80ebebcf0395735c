package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cliz/internal/core"
	"cliz/internal/entropy"
	"cliz/internal/lossless"
	"cliz/internal/mask"
)

// maskedFrames returns n frames over an nLat×nLon grid with a diagonal-band
// mask whose invalid points hold fill, and that mask.
func maskedFrames(n, nLat, nLon int, seed int64, fill float32) ([][]float32, *mask.Map) {
	regions := make([]int32, nLat*nLon)
	for i := range regions {
		if (i/nLon+i%nLon)%5 != 0 {
			regions[i] = 1
		}
	}
	frames := makeFrames(n, nLat, nLon, seed, 0.9, 0.3)
	for _, f := range frames {
		for i, r := range regions {
			if r == 0 {
				f[i] = fill
			}
		}
	}
	return frames, mask.New(nLat, nLon, regions)
}

// TestStreamDigests pins the bytes of 6-frame CLZS streams (two keyframes,
// four delta frames) under each entropy coder, so the delta-frame encoder
// path is covered by an exact-output check: plain 40×36 frames, masked
// frames with a fill value, and 80×64 frames at two workers, whose delta
// bins are cut into two entropy shards.
func TestStreamDigests(t *testing.T) {
	const fill float32 = 1e35
	plain := makeFrames(6, 40, 36, 21, 0.9, 0.3)
	masked, m := maskedFrames(6, 40, 36, 22, fill)
	wide := makeFrames(6, 80, 64, 23, 0.9, 0.3)
	cases := []struct {
		name   string
		dims   []int
		mask   *mask.Map
		frames [][]float32
		kind   entropy.Kind
		work   int
		want   string
	}{
		{"huffman", []int{40, 36}, nil, plain, entropy.Huffman, 1,
			"9b85147e2f02d5e3c5a9a33362195b63e88a6678abd2d1d17c216f0a68dd73dd"},
		{"rans", []int{40, 36}, nil, plain, entropy.RANS, 1,
			"eb2d96cf7e056d9f023eeea584218c99c7f6dc9ac9fd91e9b902015ede83984e"},
		{"masked-huffman", []int{40, 36}, m, masked, entropy.Huffman, 1,
			"710136c52f00a965262036edf2290b31b031bc5d63a536bd6de197844277224b"},
		{"masked-rans", []int{40, 36}, m, masked, entropy.RANS, 1,
			"f210ad5591409c72ddd77e4f515e6d560047753757bad30137d070c150e2d3f0"},
		{"workers2-huffman", []int{80, 64}, nil, wide, entropy.Huffman, 2,
			"eee8af542be8ba3a480fd790d495eda1c48caa1699d5c29fb79b1e9b8b2db77d"},
		{"workers2-rans", []int{80, 64}, nil, wide, entropy.RANS, 2,
			"affec3e521a3b9ebde0ab537d4f234106a9129be3bab8f54d40df7ad783c7ce2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Dims: tc.dims, Mask: tc.mask, EB: 1e-2, Interval: 3,
				Opts: core.Options{Entropy: tc.kind, Workers: tc.work}}
			if tc.mask != nil {
				cfg.Fill = fill
			}
			blob, infos := writeStream(t, cfg, tc.frames)
			deltas := 0
			for _, in := range infos {
				if in.Kind == KindDelta {
					deltas++
				}
			}
			if deltas != 4 {
				t.Fatalf("%d delta frames, want 4", deltas)
			}
			if tc.work > 1 {
				requireShardedDeltaBins(t, blob)
			}
			s := sha256.Sum256(blob)
			if got := hex.EncodeToString(s[:]); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// requireShardedDeltaBins fails unless every delta frame of blob codes its
// bins as a Sharded entropy block.
func requireShardedDeltaBins(t *testing.T, blob []byte) {
	t.Helper()
	r, err := Parse(blob, core.DecompressOptions{})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for i := 0; i < r.Frames(); i++ {
		rec, _ := r.Record(i)
		if rec.Kind != KindDelta {
			continue
		}
		payload := blob[rec.PayloadOffset : rec.PayloadOffset+rec.PayloadLen]
		pos := 0
		n, err := readUvarint(payload, &pos)
		if err != nil || n > uint64(len(payload)-pos) {
			t.Fatalf("frame %d: bad bins section length", i)
		}
		raw, err := lossless.Decode(payload[pos : pos+int(n)])
		if err != nil || len(raw) == 0 {
			t.Fatalf("frame %d: bins section: %v", i, err)
		}
		if entropy.Kind(raw[0]) != entropy.Sharded {
			t.Fatalf("frame %d: bins block kind %v, want sharded", i, entropy.Kind(raw[0]))
		}
	}
}
