package cliz_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"cliz"
	"cliz/internal/datagen"
)

// temporalFixture generates one deterministic frame sequence through the
// datagen temporal scenario machinery.
func temporalFixture(t *testing.T, spec datagen.TemporalSpec) *datagen.TemporalStream {
	t.Helper()
	ts, err := datagen.Temporal(spec)
	if err != nil {
		t.Fatalf("datagen.Temporal: %v", err)
	}
	return ts
}

func streamSpec(ts *datagen.TemporalStream) cliz.StreamSpec {
	spec := cliz.StreamSpec{Name: ts.Name, Dims: ts.Dims, FillValue: ts.Fill}
	if ts.Mask != nil {
		spec.MaskRegions = ts.Mask.Regions
	}
	return spec
}

// encodeStream writes every frame and returns the stream bytes.
func encodeStream(t *testing.T, ts *datagen.TemporalStream, eb cliz.ErrorBound, opts ...cliz.Option) ([]byte, []cliz.StreamFrameInfo) {
	t.Helper()
	var buf bytes.Buffer
	w, err := cliz.NewStreamWriter(&buf, streamSpec(ts), eb, nil, opts...)
	if err != nil {
		t.Fatalf("NewStreamWriter: %v", err)
	}
	var infos []cliz.StreamFrameInfo
	for i, f := range ts.Frames {
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

func decodeStream(t *testing.T, blob []byte, opts ...cliz.Option) [][]float32 {
	t.Helper()
	r, err := cliz.NewStreamReader(blob, opts...)
	if err != nil {
		t.Fatalf("NewStreamReader: %v", err)
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

// checkFrameBound asserts |recon − orig| ≤ eb at every valid finite point
// and exact fill at masked points; it returns the frame's max error.
func checkFrameBound(t *testing.T, frame int, orig, recon []float32, ts *datagen.TemporalStream, eb float64) float64 {
	t.Helper()
	worst := 0.0
	for p := range orig {
		if ts.Mask != nil && ts.Mask.Regions[p] == 0 {
			if recon[p] != ts.Fill {
				t.Fatalf("frame %d point %d: masked point holds %g, want fill", frame, p, recon[p])
			}
			continue
		}
		o := float64(orig[p])
		if math.IsNaN(o) || math.IsInf(o, 0) {
			continue
		}
		d := math.Abs(o - float64(recon[p]))
		if d > worst {
			worst = d
		}
		if d > eb*(1+1e-9) {
			t.Fatalf("frame %d point %d: |%g − %g| = %g > eb %g", frame, p, recon[p], orig[p], d, eb)
		}
	}
	return worst
}

// TestStreamNoDriftHundredFrames is the no-drift contract: on a 100-frame
// stream, the per-frame max error obeys the bound at frame 100 exactly as at
// frame 1 — temporal prediction runs against the reconstruction, so error
// cannot accumulate across frames. Checked for absolute and relative bounds,
// masked and unmasked.
func TestStreamNoDriftHundredFrames(t *testing.T) {
	cases := []struct {
		name   string
		masked bool
		eb     cliz.ErrorBound
	}{
		{"abs-unmasked", false, cliz.Abs(0.05)},
		{"abs-masked", true, cliz.Abs(0.05)},
		{"rel-unmasked", false, cliz.Rel(1e-3)},
		{"rel-masked", true, cliz.Rel(1e-3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := datagen.TemporalSpec{
				Name: "drift-" + tc.name, Frames: 100, NLat: 28, NLon: 36,
				Seed: 42, Corr: 0.97, AdvectCells: 0.4, Drift: 0.02, NoiseAmp: 0.6,
			}
			if tc.masked {
				spec.MaskFrac = 0.35
			}
			ts := temporalFixture(t, spec)
			blob, _ := encodeStream(t, ts, tc.eb, cliz.WithKeyframeInterval(16))
			r, err := cliz.NewStreamReader(blob)
			if err != nil {
				t.Fatalf("NewStreamReader: %v", err)
			}
			abs := r.ErrorBound()
			if abs <= 0 {
				t.Fatalf("stream stores non-positive bound %g", abs)
			}
			got := decodeStream(t, blob)
			if len(got) != 100 {
				t.Fatalf("decoded %d frames, want 100", len(got))
			}
			for f := range got {
				checkFrameBound(t, f, ts.Frames[f], got[f], ts, abs)
			}
		})
	}
}

// TestStreamRandomAccessBitIdentical: Seek(t)+ReadFrame must be bit-identical
// to sequential decode of frame t, for random targets, across keyframe
// intervals {1, 4, 16}.
func TestStreamRandomAccessBitIdentical(t *testing.T) {
	ts := temporalFixture(t, datagen.TemporalSpec{
		Name: "seek", Frames: 40, NLat: 24, NLon: 24, Seed: 9,
		Corr: 0.95, AdvectCells: 0.5, NoiseAmp: 0.5, MaskFrac: 0.3,
	})
	for _, interval := range []int{1, 4, 16} {
		blob, _ := encodeStream(t, ts, cliz.Abs(0.01), cliz.WithKeyframeInterval(interval))
		seq := decodeStream(t, blob)
		r, err := cliz.NewStreamReader(blob)
		if err != nil {
			t.Fatalf("interval %d: NewStreamReader: %v", interval, err)
		}
		if r.KeyframeInterval() != interval {
			t.Fatalf("stream declares interval %d, want %d", r.KeyframeInterval(), interval)
		}
		rng := rand.New(rand.NewSource(int64(100 + interval)))
		for k := 0; k < 30; k++ {
			target := rng.Intn(len(ts.Frames))
			if err := r.Seek(target); err != nil {
				t.Fatalf("interval %d: Seek(%d): %v", interval, target, err)
			}
			got, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("interval %d: ReadFrame at %d: %v", interval, target, err)
			}
			for p := range got {
				if math.Float32bits(got[p]) != math.Float32bits(seq[target][p]) {
					t.Fatalf("interval %d frame %d point %d: seek %g != sequential %g",
						interval, target, p, got[p], seq[target][p])
				}
			}
		}
	}
}

// TestStreamDeltaBeatsIndependent asserts the temporal win: on every
// temporal scenario, most frames are delta-coded, and the delta frames are
// at least 1.3× smaller than the same frames compressed as independent
// blobs at the same bound. The scale-0.25 cases use a relative bound of
// 1e-3, resolved against the first frame's valid-point range.
func TestStreamDeltaBeatsIndependent(t *testing.T) {
	advect := datagen.TemporalScenario(0.12)[0]
	advect.Frames = 32
	full := datagen.TemporalScenario(0.25)
	cases := []struct {
		name string
		spec datagen.TemporalSpec
		eb   float64 // absolute; 0 resolves rel 1e-3 on the first frame
	}{
		{"ADVECT-SSH@0.12", advect, 0.05},
		{full[0].Name + "@0.25", full[0], 0},
		{full[1].Name + "@0.25", full[1], 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := temporalFixture(t, tc.spec)
			eb := tc.eb
			if eb == 0 {
				eb = firstFrameBound(ts, 1e-3)
			}
			blob, infos := encodeStream(t, ts, cliz.Abs(eb), cliz.WithKeyframeInterval(16))

			var deltaBytes, indepBytes, deltas int
			for i, info := range infos {
				if info.Kind != cliz.StreamDelta {
					continue
				}
				frame := &cliz.Dataset{Name: ts.Name, Data: ts.Frames[i], Dims: ts.Dims, FillValue: ts.Fill}
				if ts.Mask != nil {
					frame.MaskRegions = ts.Mask.Regions
				}
				indep, _, err := cliz.Compress(frame, cliz.Abs(eb), nil)
				if err != nil {
					t.Fatalf("independent compress of frame %d: %v", i, err)
				}
				deltaBytes += info.PayloadBytes
				indepBytes += len(indep)
				deltas++
			}
			if deltas < len(infos)/2 {
				t.Fatalf("only %d/%d frames delta-coded", deltas, len(infos))
			}
			ratio := float64(indepBytes) / float64(deltaBytes)
			t.Logf("delta-vs-independent ratio: %.2f (%d delta frames, %d vs %d bytes)",
				ratio, deltas, indepBytes, deltaBytes)
			if ratio < 1.3 {
				t.Fatalf("delta frames only %.2f× smaller than independent blobs, want >= 1.3×", ratio)
			}
			// And the stream still decodes within bound, of course.
			got := decodeStream(t, blob)
			for f := range got {
				checkFrameBound(t, f, ts.Frames[f], got[f], ts, eb)
			}
		})
	}
}

// firstFrameBound resolves a relative bound against the value range of the
// first frame's valid points.
func firstFrameBound(ts *datagen.TemporalStream, rel float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for p, v := range ts.Frames[0] {
		if ts.Mask == nil || ts.Mask.Regions[p] != 0 {
			lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
		}
	}
	return rel * (hi - lo)
}

// TestStreamIntraFallbackRegression pins the fallback promoted from
// development: a near-constant frame far from its predecessor makes every
// temporal residual underflow the quantizer range (all literals); the writer
// must fall back to intra-frame coding rather than emit a bloated delta
// frame — and the bound must hold either way.
func TestStreamIntraFallbackRegression(t *testing.T) {
	const nLat, nLon, eb = 24, 24, 1e-3
	plane := nLat * nLon
	f0 := make([]float32, plane)
	f1 := make([]float32, plane)
	for i := range f0 {
		ripple := 0.3 * math.Sin(float64(i)/7)
		f0[i] = float32(1500 + ripple)
		f1[i] = float32(-1500 + 0.2*math.Cos(float64(i)/5) + ripple)
	}
	var buf bytes.Buffer
	w, err := cliz.NewStreamWriter(&buf, cliz.StreamSpec{Name: "jump", Dims: []int{nLat, nLon}},
		cliz.Abs(eb), nil, cliz.WithKeyframeInterval(16))
	if err != nil {
		t.Fatalf("NewStreamWriter: %v", err)
	}
	if _, err := w.Append(f0); err != nil {
		t.Fatalf("Append f0: %v", err)
	}
	info, err := w.Append(f1)
	if err != nil {
		t.Fatalf("Append f1: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if info.Kind != cliz.StreamIntra {
		t.Fatalf("jump frame coded as %v, want intra fallback", info.Kind)
	}
	r, err := cliz.NewStreamReader(buf.Bytes())
	if err != nil {
		t.Fatalf("NewStreamReader: %v", err)
	}
	if kind, err := r.FrameKind(1); err != nil || kind != cliz.StreamIntra {
		t.Fatalf("FrameKind(1) = %v, %v", kind, err)
	}
	got := decodeStream(t, buf.Bytes())
	for p := range f1 {
		if d := math.Abs(float64(f1[p]) - float64(got[1][p])); d > eb*(1+1e-9) {
			t.Fatalf("fallback frame point %d: error %g > bound %g", p, d, eb)
		}
	}
}

// TestStreamPublicSurface covers the remaining public-API contracts: option
// plumbing, corrupt input, empty streams, relative-bound resolution.
func TestStreamPublicSurface(t *testing.T) {
	ts := temporalFixture(t, datagen.TemporalSpec{
		Name: "surface", Frames: 8, NLat: 16, NLon: 16, Seed: 5,
		Corr: 0.9, AdvectCells: 0.3, NoiseAmp: 0.4,
	})

	t.Run("workers-and-trace", func(t *testing.T) {
		var wtr cliz.Trace
		blob, _ := encodeStream(t, ts, cliz.Abs(0.01),
			cliz.WithWorkers(3), cliz.WithTrace(&wtr))
		if len(wtr.Stages()) == 0 {
			t.Error("traced stream writer recorded no stages")
		}
		one := decodeStream(t, blob, cliz.WithWorkers(1))
		many := decodeStream(t, blob, cliz.WithWorkers(4))
		for f := range one {
			for p := range one[f] {
				if math.Float32bits(one[f][p]) != math.Float32bits(many[f][p]) {
					t.Fatalf("frame %d differs across decode worker counts", f)
				}
			}
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		blob, _ := encodeStream(t, ts, cliz.Abs(0.01))
		if _, err := cliz.NewStreamReader(blob[:len(blob)-1]); !errors.Is(err, cliz.ErrCorrupt) {
			t.Errorf("truncated stream error %v does not wrap cliz.ErrCorrupt", err)
		}
		if _, err := cliz.NewStreamReader([]byte("not a stream")); !errors.Is(err, cliz.ErrCorrupt) {
			t.Errorf("garbage error %v does not wrap cliz.ErrCorrupt", err)
		}
	})

	t.Run("empty-stream", func(t *testing.T) {
		var buf bytes.Buffer
		w, err := cliz.NewStreamWriter(&buf, cliz.StreamSpec{Dims: []int{4, 4}}, cliz.Abs(0.1), nil)
		if err != nil {
			t.Fatalf("NewStreamWriter: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close of empty stream: %v", err)
		}
		r, err := cliz.NewStreamReader(buf.Bytes())
		if err != nil {
			t.Fatalf("NewStreamReader: %v", err)
		}
		if r.Frames() != 0 {
			t.Fatalf("empty stream has %d frames", r.Frames())
		}
		// A relative bound cannot resolve without a frame.
		var buf2 bytes.Buffer
		w2, _ := cliz.NewStreamWriter(&buf2, cliz.StreamSpec{Dims: []int{4, 4}}, cliz.Rel(0.01), nil)
		if err := w2.Close(); err == nil {
			t.Fatal("closing an empty Rel-bound stream succeeded")
		}
	})

	t.Run("rel-bound-zero-range", func(t *testing.T) {
		var buf bytes.Buffer
		w, err := cliz.NewStreamWriter(&buf, cliz.StreamSpec{Dims: []int{4, 4}}, cliz.Rel(0.01), nil)
		if err != nil {
			t.Fatalf("NewStreamWriter: %v", err)
		}
		if _, err := w.Append(make([]float32, 16)); err == nil {
			t.Fatal("Rel bound resolved against a constant first frame")
		}
	})

	t.Run("zero-pipeline-rejected", func(t *testing.T) {
		var buf bytes.Buffer
		var zero cliz.Pipeline
		if _, err := cliz.NewStreamWriter(&buf, cliz.StreamSpec{Dims: []int{4, 4}},
			cliz.Abs(0.1), &zero); err == nil {
			t.Fatal("zero-value Pipeline accepted")
		}
	})
}
