package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"cliz/internal/core"
	"cliz/internal/entropy"
	"cliz/internal/mask"
)

// makeFrames synthesizes n smoothly-evolving frames over an nLat×nLon grid:
// a fixed spatial pattern plus a slow drift and AR(1) temporal noise, so
// delta coding has something realistic to chew on.
func makeFrames(n, nLat, nLon int, seed int64, corr, noiseAmp float64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	plane := nLat * nLon
	base := make([]float64, plane)
	for i := 0; i < nLat; i++ {
		for j := 0; j < nLon; j++ {
			base[i*nLon+j] = 40*math.Sin(5*float64(i)/float64(nLat)) +
				25*math.Cos(7*float64(j)/float64(nLon))
		}
	}
	noise := make([]float64, plane)
	for p := range noise {
		noise[p] = rng.NormFloat64()
	}
	frames := make([][]float32, n)
	mix := math.Sqrt(1 - corr*corr)
	for t := range frames {
		f := make([]float32, plane)
		drift := 3 * float64(t) / float64(n)
		for p := range f {
			if t > 0 {
				noise[p] = corr*noise[p] + mix*rng.NormFloat64()
			}
			f[p] = float32(base[p] + drift + noiseAmp*noise[p])
		}
		frames[t] = f
	}
	return frames
}

// writeStream appends every frame and returns the stream bytes plus the
// per-frame infos.
func writeStream(t *testing.T, cfg Config, frames [][]float32) ([]byte, []FrameInfo) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, cfg)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	infos := make([]FrameInfo, 0, len(frames))
	for i, f := range frames {
		info, err := w.Append(f)
		if err != nil {
			t.Fatalf("Append frame %d: %v", i, err)
		}
		infos = append(infos, info)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), infos
}

// readAll sequentially decodes every frame.
func readAll(t *testing.T, blob []byte, opt core.DecompressOptions) [][]float32 {
	t.Helper()
	r, err := Parse(blob, opt)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var out [][]float32
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", len(out), err)
		}
		out = append(out, f)
	}
	return out
}

func maxAbsErr(orig, recon []float32, valid []bool) float64 {
	worst := 0.0
	for i := range orig {
		if valid != nil && !valid[i] {
			continue
		}
		o, r := float64(orig[i]), float64(recon[i])
		if math.IsNaN(o) || math.IsInf(o, 0) {
			continue
		}
		if d := math.Abs(o - r); d > worst {
			worst = d
		}
	}
	return worst
}

func TestRoundTripBoundEveryFrame(t *testing.T) {
	const eb = 1e-2
	frames := makeFrames(40, 24, 32, 1, 0.95, 0.5)
	blob, infos := writeStream(t, Config{Dims: []int{24, 32}, EB: eb, Interval: 8}, frames)
	got := readAll(t, blob, core.DecompressOptions{})
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if err := maxAbsErr(frames[i], got[i], nil); err > eb {
			t.Errorf("frame %d: max error %g > bound %g", i, err, eb)
		}
	}
	// The keyframe cadence must hold: frame 0, 8, 16, ... are keyframes.
	for _, info := range infos {
		if (info.Index%8 == 0) != (info.Kind == KindKey) {
			t.Errorf("frame %d has kind %v under interval 8", info.Index, info.Kind)
		}
	}
}

func TestDeltaFramesActuallyUsed(t *testing.T) {
	frames := makeFrames(20, 24, 24, 2, 0.98, 0.2)
	_, infos := writeStream(t, Config{Dims: []int{24, 24}, EB: 1e-2, Interval: 10}, frames)
	deltas := 0
	for _, info := range infos {
		if info.Kind == KindDelta {
			deltas++
		}
	}
	if deltas < 15 {
		t.Fatalf("only %d/20 delta frames on a smoothly-evolving stream", deltas)
	}
}

func TestMaskedStream(t *testing.T) {
	const nLat, nLon, eb = 16, 20, 5e-3
	regions := make([]int32, nLat*nLon)
	for i := range regions {
		if (i/nLon+i%nLon)%3 != 0 {
			regions[i] = 1
		}
	}
	m := mask.New(nLat, nLon, regions)
	const fill float32 = 9.96921e36
	frames := makeFrames(12, nLat, nLon, 3, 0.9, 0.3)
	for _, f := range frames {
		for i, r := range regions {
			if r == 0 {
				f[i] = fill
			}
		}
	}
	blob, _ := writeStream(t, Config{
		Dims: []int{nLat, nLon}, Mask: m, Fill: fill, EB: eb, Interval: 4,
	}, frames)
	got := readAll(t, blob, core.DecompressOptions{})
	valid := make([]bool, nLat*nLon)
	for i, r := range regions {
		valid[i] = r != 0
	}
	for i := range frames {
		if err := maxAbsErr(frames[i], got[i], valid); err > eb {
			t.Errorf("frame %d: max error %g > bound %g", i, err, eb)
		}
		for p, ok := range valid {
			if !ok && got[i][p] != fill {
				t.Fatalf("frame %d point %d: masked point holds %g, want fill", i, p, got[i][p])
			}
		}
	}
}

// TestHeaderChecksumBeforeMask damages a header's mask section and leaves
// the header checksum stale. The parser must reject it on the checksum,
// before it inflates the mask; it used to parse the mask first and fail
// there, inflating bytes nothing had verified.
func TestHeaderChecksumBeforeMask(t *testing.T) {
	_, err := Parse(staleCRCMaskStream(t), core.DecompressOptions{})
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("damaged mask section with a stale checksum: error %v, want ErrChecksum", err)
	}
}

func TestNonFiniteLiteralsSurvive(t *testing.T) {
	frames := makeFrames(6, 12, 12, 4, 0.9, 0.2)
	frames[3][17] = float32(math.NaN())
	frames[3][40] = float32(math.Inf(1))
	frames[4][40] = float32(math.Inf(-1))
	blob, _ := writeStream(t, Config{Dims: []int{12, 12}, EB: 1e-3, Interval: 16}, frames)
	got := readAll(t, blob, core.DecompressOptions{})
	if !math.IsNaN(float64(got[3][17])) {
		t.Errorf("frame 3: NaN not preserved, got %g", got[3][17])
	}
	if !math.IsInf(float64(got[3][40]), 1) || !math.IsInf(float64(got[4][40]), -1) {
		t.Errorf("Inf literals not preserved: %g, %g", got[3][40], got[4][40])
	}
	// The frame after a non-finite point must still satisfy the bound: the
	// NaN predecessor demotes that point to a literal, not to garbage.
	if err := maxAbsErr(frames[5], got[5], nil); err > 1e-3 {
		t.Errorf("frame 5 after non-finite points: max error %g", err)
	}
}

func TestIntraFallbackOnQuantizerUnderflow(t *testing.T) {
	// Frame 1 sits ~2000 below frame 0: the temporal delta divided by 2·eb
	// underflows the quantizer range at every point, so every point becomes
	// a literal and the writer must fall back to intra-frame mode instead of
	// paying 4 bytes/point — and the bound must hold regardless.
	const nLat, nLon, eb = 24, 24, 1e-3
	plane := nLat * nLon
	f0 := make([]float32, plane)
	f1 := make([]float32, plane)
	for i := range f0 {
		ripple := 0.3 * math.Sin(float64(i)/7)
		f0[i] = float32(1000 + ripple)
		f1[i] = float32(-1000 + 0.2*math.Cos(float64(i)/5) + ripple)
	}
	blob, infos := writeStream(t, Config{Dims: []int{nLat, nLon}, EB: eb, Interval: 16},
		[][]float32{f0, f1})
	if infos[1].Kind != KindIntra {
		t.Fatalf("frame 1 kind = %v, want intra fallback", infos[1].Kind)
	}
	got := readAll(t, blob, core.DecompressOptions{})
	if err := maxAbsErr(f1, got[1], nil); err > eb {
		t.Errorf("fallback frame: max error %g > bound %g", err, eb)
	}
}

func TestSeekMatchesSequential(t *testing.T) {
	frames := makeFrames(30, 16, 16, 5, 0.95, 0.4)
	for _, interval := range []int{1, 4, 16} {
		blob, _ := writeStream(t, Config{Dims: []int{16, 16}, EB: 1e-2, Interval: interval}, frames)
		seq := readAll(t, blob, core.DecompressOptions{})
		r, err := Parse(blob, core.DecompressOptions{})
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(interval)))
		for k := 0; k < 25; k++ {
			target := rng.Intn(len(frames))
			if err := r.Seek(target); err != nil {
				t.Fatalf("interval %d: Seek(%d): %v", interval, target, err)
			}
			got, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("interval %d: ReadFrame(%d): %v", interval, target, err)
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(seq[target][i]) {
					t.Fatalf("interval %d: frame %d point %d: seek %g != sequential %g",
						interval, target, i, got[i], seq[target][i])
				}
			}
		}
	}
}

func TestDecodeWorkerIndependence(t *testing.T) {
	frames := makeFrames(10, 20, 20, 6, 0.9, 0.3)
	blob, _ := writeStream(t, Config{
		Dims: []int{20, 20}, EB: 1e-2, Interval: 4,
		Opts: core.Options{Workers: 3, Entropy: entropy.RANSInterleaved},
	}, frames)
	one := readAll(t, blob, core.DecompressOptions{Workers: 1})
	many := readAll(t, blob, core.DecompressOptions{Workers: 4})
	for i := range one {
		for p := range one[i] {
			if math.Float32bits(one[i][p]) != math.Float32bits(many[i][p]) {
				t.Fatalf("frame %d point %d differs across decode worker counts", i, p)
			}
		}
	}
}

func TestWriterDeterminism(t *testing.T) {
	frames := makeFrames(8, 16, 16, 7, 0.9, 0.3)
	a, _ := writeStream(t, Config{Dims: []int{16, 16}, EB: 1e-2, Interval: 4}, frames)
	b, _ := writeStream(t, Config{Dims: []int{16, 16}, EB: 1e-2, Interval: 4}, frames)
	if !bytes.Equal(a, b) {
		t.Fatal("identical inputs produced different streams")
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{Dims: []int{8, 8}, EB: 1e-2})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := Parse(buf.Bytes(), core.DecompressOptions{})
	if err != nil {
		t.Fatalf("Parse of empty stream: %v", err)
	}
	if r.Frames() != 0 {
		t.Fatalf("empty stream has %d frames", r.Frames())
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("ReadFrame on empty stream: %v, want io.EOF", err)
	}
	if err := r.Seek(0); err == nil {
		t.Fatal("Seek(0) on empty stream succeeded")
	}
}

func TestAppendRejectsWrongLength(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{Dims: []int{8, 8}, EB: 1e-2})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := w.Append(make([]float32, 63)); err == nil {
		t.Fatal("Append with wrong frame length succeeded")
	}
}

func TestTruncationIsCleanCorruption(t *testing.T) {
	frames := makeFrames(10, 16, 16, 8, 0.9, 0.3)
	blob, _ := writeStream(t, Config{Dims: []int{16, 16}, EB: 1e-2, Interval: 4}, frames)
	// Mid-record truncations must fail Parse with ErrCorrupt; header-level
	// truncations likewise. Record-boundary truncation is NOT corruption
	// (an append stream's valid shorter prefix) and is covered below.
	for _, n := range []int{1, 4, 9, 17, len(blob) / 3, len(blob) - 1} {
		r, err := Parse(blob[:n], core.DecompressOptions{})
		if err == nil {
			// A cut can land exactly on a record boundary; then the prefix
			// must simply be a shorter valid stream.
			for {
				if _, err := r.ReadFrame(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("truncate %d: decode of boundary prefix: %v", n, err)
				}
			}
			continue
		}
		if !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("truncate %d: error %v does not wrap core.ErrCorrupt", n, err)
		}
	}
	// A prefix ending exactly after frame 5's record decodes 6 frames.
	r0, err := Parse(blob, core.DecompressOptions{})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rec, err := r0.Record(5)
	if err != nil {
		t.Fatalf("Record(5): %v", err)
	}
	cut := rec.PayloadOffset + rec.PayloadLen
	r, err := Parse(blob[:cut], core.DecompressOptions{})
	if err != nil {
		t.Fatalf("Parse of record-boundary prefix: %v", err)
	}
	if r.Frames() != 6 {
		t.Fatalf("boundary prefix has %d frames, want 6", r.Frames())
	}
}

func TestPayloadFlipIsAttributedFrameError(t *testing.T) {
	frames := makeFrames(12, 16, 16, 9, 0.9, 0.3)
	blob, _ := writeStream(t, Config{Dims: []int{16, 16}, EB: 1e-2, Interval: 4}, frames)
	r, err := Parse(blob, core.DecompressOptions{})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, target := range []int{0, 5, 11} {
		rec, err := r.Record(target)
		if err != nil {
			t.Fatalf("Record(%d): %v", target, err)
		}
		bad := append([]byte(nil), blob...)
		bad[rec.PayloadOffset+rec.PayloadLen/2] ^= 0x40
		rb, err := Parse(bad, core.DecompressOptions{})
		if err != nil {
			t.Fatalf("Parse of payload-flipped stream: %v", err)
		}
		if err := rb.Seek(target); err != nil {
			t.Fatalf("Seek(%d): %v", target, err)
		}
		_, err = rb.ReadFrame()
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("frame %d flip: error %v is not a FrameError", target, err)
		}
		if fe.Frame != target {
			t.Errorf("flip in frame %d attributed to frame %d", target, fe.Frame)
		}
		if !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("frame %d flip: error %v does not wrap core.ErrCorrupt", target, err)
		}
		// Undamaged frames before the flip still decode.
		if target > 0 {
			if err := rb.Seek(target - 1); err != nil {
				t.Fatalf("Seek(%d): %v", target-1, err)
			}
			if _, err := rb.ReadFrame(); err != nil {
				t.Errorf("undamaged frame %d fails after flip in %d: %v", target-1, target, err)
			}
		}
	}
}

func TestHeaderFlipRejected(t *testing.T) {
	frames := makeFrames(4, 12, 12, 10, 0.9, 0.3)
	blob, _ := writeStream(t, Config{Dims: []int{12, 12}, EB: 1e-2, Interval: 2}, frames)
	for _, off := range []int{5, 6, 10, 15} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x01
		if _, err := Parse(bad, core.DecompressOptions{}); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("header flip at %d: error %v does not wrap core.ErrCorrupt", off, err)
		}
	}
}

func TestInterruptStopsAppend(t *testing.T) {
	stop := errors.New("deadline")
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{
		Dims: []int{8, 8}, EB: 1e-2,
		Opts: core.Options{Interrupt: func() error { return stop }},
	})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := w.Append(make([]float32, 64)); !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("Append under interrupt: %v", err)
	}
}
