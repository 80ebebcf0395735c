package stream

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cliz/internal/core"
	"cliz/internal/mask"
)

// fuzzSeedStream builds a small valid stream for the seed corpus.
func fuzzSeedStream(tb testing.TB, interval int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{Dims: []int{6, 8}, EB: 1e-2, Interval: interval})
	if err != nil {
		tb.Fatalf("NewWriter: %v", err)
	}
	for t := 0; t < 5; t++ {
		frame := make([]float32, 48)
		for i := range frame {
			frame[i] = float32(t)*0.5 + float32(i%7)
		}
		if _, err := w.Append(frame); err != nil {
			tb.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// fuzzMaskedSeedStream builds a small valid masked stream with a fill value
// and delta frames, for the seed corpus.
func fuzzMaskedSeedStream(tb testing.TB) []byte {
	tb.Helper()
	const fill float32 = 1e35
	regions := make([]int32, 48)
	for i := range regions {
		if i%5 != 0 {
			regions[i] = 1
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{Dims: []int{2, 6, 8}, Mask: mask.New(6, 8, regions),
		Fill: fill, EB: 1e-2, Interval: 4})
	if err != nil {
		tb.Fatalf("NewWriter: %v", err)
	}
	for t := 0; t < 5; t++ {
		frame := make([]float32, 96)
		for i := range frame {
			frame[i] = float32(t)*0.05 + float32(i%7)
			if regions[i%48] == 0 {
				frame[i] = fill
			}
		}
		info, err := w.Append(frame)
		if err != nil {
			tb.Fatalf("Append: %v", err)
		}
		if t%4 != 0 && info.Kind != KindDelta {
			tb.Fatalf("seed frame %d is %v, want delta", t, info.Kind)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// staleCRCMaskStream is the masked seed stream with every byte of its
// header's mask section inverted and the header checksum left as it was.
func staleCRCMaskStream(tb testing.TB) []byte {
	tb.Helper()
	blob := fuzzMaskedSeedStream(tb)
	regions := make([]int32, 48)
	for i := range regions {
		if i%5 != 0 {
			regions[i] = 1
		}
	}
	sec := mask.New(6, 8, regions).Serialize()
	at := bytes.Index(blob, sec)
	if at < 0 {
		tb.Fatal("mask section not found in the masked seed stream")
	}
	for i := at; i < at+len(sec); i++ {
		blob[i] ^= 0xff
	}
	return blob
}

// FuzzParse feeds arbitrary bytes to the stream parser and, when parsing
// succeeds, decodes a bounded number of frames. The contract: no panics, no
// unbounded allocations, and every rejection wraps core.ErrCorrupt.
func FuzzParse(f *testing.F) {
	valid := fuzzSeedStream(f, 2)
	f.Add(valid)
	f.Add(fuzzMaskedSeedStream(f))
	f.Add(staleCRCMaskStream(f))
	// Truncations: inside the header, inside a record header, inside a payload.
	for _, n := range []int{0, 3, 10, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	// Frame-count / index overflow: splice a huge uvarint where a record's
	// declared index lives (right after the header CRC + kind byte).
	overflow := append([]byte(nil), valid...)
	overflow = append(overflow, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	f.Add(overflow)
	// Keyframe sync offset out of range: flip bytes in the first record header.
	badSync := append([]byte(nil), valid...)
	badSync[len(badSync)-6] ^= 0xff
	f.Add(badSync)
	// Header field flips.
	for _, off := range []int{4, 6, 14, 20} {
		bad := append([]byte(nil), valid...)
		bad[off] ^= 0x80
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(data, core.DecompressOptions{})
		if err != nil {
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("Parse rejection %v does not wrap core.ErrCorrupt", err)
			}
			return
		}
		// Structurally valid: decode up to 8 frames. Payload-level damage must
		// surface as an attributed FrameError wrapping core.ErrCorrupt.
		for i := 0; i < 8; i++ {
			_, err := r.ReadFrame()
			if err == io.EOF {
				break
			}
			if err == nil {
				continue
			}
			var fe *FrameError
			if !errors.As(err, &fe) && !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("ReadFrame error %v is neither FrameError nor ErrCorrupt", err)
			}
			break
		}
	})
}
