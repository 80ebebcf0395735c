package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"cliz/internal/core"
	"cliz/internal/entropy"
	"cliz/internal/lossless"
	"cliz/internal/quant"
)

// rawDeltaPayload frames an entropy block of bins and the literals the way
// a delta payload lays them out: uvarint length | lossless(block) | uvarint
// length | lossless(f32 LE literals).
func rawDeltaPayload(block []byte, lits []float32) []byte {
	litBytes := make([]byte, 0, 4*len(lits))
	for _, x := range lits {
		litBytes = binary.LittleEndian.AppendUint32(litBytes, math.Float32bits(x))
	}
	return rawDeltaSections(block, litBytes)
}

// rawDeltaSections frames an entropy block and literal bytes as a delta
// payload, each section through the default lossless stage.
func rawDeltaSections(block, litBytes []byte) []byte {
	var p []byte
	for _, sec := range [][]byte{lossless.Encode(nil, block), lossless.Encode(nil, litBytes)} {
		p = binary.AppendUvarint(p, uint64(len(sec)))
		p = append(p, sec...)
	}
	return p
}

// withLastPayload returns blob with its last record, a delta frame,
// carrying payload instead, under a correct record header and checksum.
func withLastPayload(t *testing.T, blob, payload []byte) []byte {
	t.Helper()
	r, err := Parse(blob, core.DecompressOptions{})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	last := r.Frames() - 1
	rec, _ := r.Record(last)
	if rec.Kind != KindDelta {
		t.Fatalf("last frame is %v, want delta", rec.Kind)
	}
	sync, _ := r.Record(rec.SyncIndex)
	out := append([]byte(nil), blob[:rec.Offset]...)
	out = appendRecordHeader(out, KindDelta, last, sync.Offset, len(payload),
		crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// TestCorruptDeltaPayload replaces a masked stream's last delta frame with
// payloads that break one decode check each. Every one must fail as a
// *FrameError for that frame wrapping core.ErrCorrupt, at one and two
// decode workers; the well-formed control payloads must decode.
func TestCorruptDeltaPayload(t *testing.T) {
	const fill float32 = 1e35
	frames, m := maskedFrames(3, 48, 64, 41, fill)
	blob, infos := writeStream(t, Config{Dims: []int{48, 64}, Mask: m, Fill: fill, EB: 1e-2}, frames)
	if infos[2].Kind != KindDelta {
		t.Fatalf("frame 2 is %v, want delta", infos[2].Kind)
	}
	n := m.ValidCount()
	if n-1 < 2*1024 {
		t.Fatalf("%d valid points cannot cut into two entropy shards", n)
	}
	const r = quant.DefaultRadius
	// zero returns k bins of a zero temporal residual.
	zero := func(k int) []int32 {
		b := make([]int32, k)
		for i := range b {
			b[i] = r
		}
		return b
	}
	huff := func(b []int32) []byte { return entropy.EncodeBlock(entropy.Huffman, b) }
	shard2 := func(b []int32) []byte { return entropy.EncodeBlockSharded(entropy.Huffman, b, 2) }
	rans := func(b []int32) []byte { return entropy.EncodeBlock(entropy.RANS, b) }
	oneLit := zero(n)
	oneLit[7] = 0
	outside := zero(n)
	outside[n/2] = 2 * r
	control := rawDeltaPayload(huff(oneLit), []float32{1.5})
	cases := []struct {
		name    string
		payload []byte
		ok      bool
	}{
		{"control", control, true},
		{"control-2-shard", rawDeltaPayload(shard2(zero(n)), nil), true},
		{"count+1", rawDeltaPayload(huff(zero(n+1)), nil), false},
		{"count-1", rawDeltaPayload(huff(zero(n-1)), nil), false},
		{"count+1-2-shard", rawDeltaPayload(shard2(zero(n+1)), nil), false},
		{"count-1-2-shard", rawDeltaPayload(shard2(zero(n-1)), nil), false},
		{"count+1-rans", rawDeltaPayload(rans(zero(n+1)), nil), false},
		{"count-1-rans", rawDeltaPayload(rans(zero(n-1)), nil), false},
		{"bin-outside-radius", rawDeltaPayload(huff(outside), nil), false},
		{"literal-short", rawDeltaPayload(huff(oneLit), nil), false},
		{"literal-extra", rawDeltaPayload(huff(oneLit), []float32{1.5, 2.5}), false},
		{"literal-partial", rawDeltaSections(huff(oneLit), []byte{0, 0, 0xc0, 0x3f, 0}), false},
		{"trailing-byte", append(append([]byte(nil), control...), 0), false},
	}
	for _, tc := range cases {
		bad := withLastPayload(t, blob, tc.payload)
		for _, workers := range []int{1, 2} {
			got := tryReadAll(bad, core.DecompressOptions{Workers: workers})
			if tc.ok {
				if got.err != nil {
					t.Errorf("%s at %d workers: %v", tc.name, workers, got.err)
				}
				continue
			}
			var fe *FrameError
			if !errors.As(got.err, &fe) || fe.Frame != 2 {
				t.Errorf("%s at %d workers: error %v is not a FrameError for frame 2", tc.name, workers, got.err)
				continue
			}
			if !errors.Is(got.err, core.ErrCorrupt) {
				t.Errorf("%s at %d workers: error %v does not wrap core.ErrCorrupt", tc.name, workers, got.err)
			}
		}
	}
	// The control's literal lands on the eighth valid point.
	got := tryReadAll(withLastPayload(t, blob, control), core.DecompressOptions{})
	valid := 0
	for i, reg := range m.Regions {
		if reg == 0 {
			if got.frames[2][i] != fill {
				t.Fatalf("masked point %d holds %g, want fill", i, got.frames[2][i])
			}
			continue
		}
		if valid == 7 && got.frames[2][i] != 1.5 {
			t.Fatalf("literal point %d holds %g, want 1.5", i, got.frames[2][i])
		}
		valid++
	}
}

// decoded is what tryReadAll read: the frames, and the first error.
type decoded struct {
	frames [][]float32
	err    error
}

// tryReadAll decodes every frame of blob in order, stopping at the first error.
func tryReadAll(blob []byte, opt core.DecompressOptions) decoded {
	r, err := Parse(blob, opt)
	if err != nil {
		return decoded{err: err}
	}
	var d decoded
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			return d
		}
		if err != nil {
			d.err = err
			return d
		}
		d.frames = append(d.frames, f)
	}
}

// failAfter returns an Interrupt hook that, once armed, counts its calls
// and fails from call k on.
func failAfter(k int, armed *bool, calls *int) func() error {
	stop := errors.New("deadline")
	return func() error {
		if !*armed {
			return nil
		}
		*calls++
		if *calls >= k {
			return stop
		}
		return nil
	}
}

// TestInterruptMidDeltaFrame cancels a delta Append and a delta ReadFrame
// of a 2^17-point frame on the first poll after the frame-boundary one, so
// only a poll inside the frame's point loop can stop it.
func TestInterruptMidDeltaFrame(t *testing.T) {
	frames := makeFrames(2, 512, 256, 42, 0.95, 0.2)
	blob, infos := writeStream(t, Config{Dims: []int{512, 256}, EB: 1e-2}, frames)
	if infos[1].Kind != KindDelta {
		t.Fatalf("frame 1 is %v, want delta", infos[1].Kind)
	}

	// An armed hook that never fails sees the boundary poll and at least
	// one poll per 64 Ki points.
	armed, calls := false, 0
	w, err := NewWriter(io.Discard, Config{Dims: []int{512, 256}, EB: 1e-2,
		Opts: core.Options{Interrupt: failAfter(math.MaxInt, &armed, &calls)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(frames[0]); err != nil {
		t.Fatal(err)
	}
	armed = true
	if _, err := w.Append(frames[1]); err != nil {
		t.Fatal(err)
	}
	if calls < 1+len(frames[1])>>16 {
		t.Errorf("delta Append polled %d times, want at least %d", calls, 1+len(frames[1])>>16)
	}

	armed, calls = false, 0
	w, err = NewWriter(io.Discard, Config{Dims: []int{512, 256}, EB: 1e-2,
		Opts: core.Options{Interrupt: failAfter(2, &armed, &calls)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(frames[0]); err != nil {
		t.Fatal(err)
	}
	armed = true
	if _, err := w.Append(frames[1]); !errors.Is(err, core.ErrInterrupted) {
		t.Errorf("delta Append interrupted mid-frame: %v, want core.ErrInterrupted", err)
	}

	armed, calls = false, 0
	r, err := Parse(blob, core.DecompressOptions{Interrupt: failAfter(2, &armed, &calls)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	armed = true
	if _, err := r.ReadFrame(); !errors.Is(err, core.ErrInterrupted) {
		t.Errorf("delta ReadFrame interrupted mid-frame: %v, want core.ErrInterrupted", err)
	}
	if calls != 2 {
		t.Errorf("delta ReadFrame stopped at poll %d, want 2", calls)
	}
}

// deltaAllocFrames are the frames of the delta allocation test and
// benchmarks: 384×320 points, the stream-temporal bench's frame, evolving
// slowly enough that every frame after the first is delta-coded.
func deltaAllocFrames(n int) [][]float32 { return makeFrames(n, 384, 320, 43, 0.95, 0.2) }

// TestDeltaFrameAllocBytes bounds the bytes one warm delta Append and one
// warm delta ReadFrame allocate at Workers=1. The frame's buffers (the bins,
// the reconstructions) are reused from frame to frame, so an Append
// allocates what scales with its payload — the coded sections and the
// payload itself — and a ReadFrame the copy it returns (4 B/pt) plus its
// decoded sections. Each side gets four payloads plus a fixed 64 KiB. A
// full-frame staging copy of the symbols (4 B/pt) fails either side. GC is
// held off and the test runs on one P, so the warm pools stay filled.
func TestDeltaFrameAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const fixed = 64 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frames := deltaAllocFrames(3)
	cfg := Config{Dims: []int{384, 320}, EB: 1e-2, Opts: core.Options{Workers: 1}}
	blob, infos := writeStream(t, cfg, frames)
	for _, in := range infos[1:] {
		if in.Kind != KindDelta {
			t.Fatalf("frame %d is %v, want delta", in.Index, in.Kind)
		}
	}
	payload := float64(infos[2].PayloadBytes)
	pts := float64(len(frames[2]))

	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	w, err := NewWriter(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Parse(blob, core.DecompressOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a keyframe, then a delta frame to warm up
		if _, err := w.Append(frames[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, aerr := w.Append(frames[2])
	runtime.ReadMemStats(&m1)
	_, rerr := r.ReadFrame()
	runtime.ReadMemStats(&m2)
	if aerr != nil || rerr != nil {
		t.Fatalf("append %v, read %v", aerr, rerr)
	}
	for _, side := range []struct {
		name  string
		bytes uint64
		limit float64
	}{
		{"Append", m1.TotalAlloc - m0.TotalAlloc, 4*payload + fixed},
		{"ReadFrame", m2.TotalAlloc - m1.TotalAlloc, 4*pts + 4*payload + fixed},
	} {
		t.Logf("delta %s: %.2f B/pt (limit %.2f; payload %.2f B/pt)",
			side.name, float64(side.bytes)/pts, side.limit/pts, payload/pts)
		if float64(side.bytes) > side.limit {
			t.Errorf("delta %s allocates %d bytes (%.2f B/pt), over the %.0f-byte limit (%.2f B/pt)",
				side.name, side.bytes, float64(side.bytes)/pts, side.limit, side.limit/pts)
		}
	}
}

// allocMeter sums the bytes allocated while a benchmark's timer runs.
type allocMeter struct {
	m     runtime.MemStats
	total uint64
}

func (a *allocMeter) start() { runtime.ReadMemStats(&a.m) }

func (a *allocMeter) stop() {
	before := a.m.TotalAlloc
	runtime.ReadMemStats(&a.m)
	a.total += a.m.TotalAlloc - before
}

// BenchmarkDeltaAppend times warm delta Appends (Workers=1) of 384×320
// frames, alternating between two frames:
//
//	go test -run='^$' -bench=Delta ./internal/stream
func BenchmarkDeltaAppend(b *testing.B) {
	frames := deltaAllocFrames(2)
	w, err := NewWriter(io.Discard, Config{Dims: []int{384, 320}, EB: 1e-2, Interval: maxInterval,
		Opts: core.Options{Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range frames {
		if _, err := w.Append(f); err != nil {
			b.Fatal(err)
		}
	}
	pts := len(frames[0])
	b.SetBytes(int64(pts) * 4)
	b.ReportAllocs()
	var a allocMeter
	b.ResetTimer()
	a.start()
	for i := 0; i < b.N; i++ {
		info, err := w.Append(frames[i%2])
		if err != nil || info.Kind != KindDelta {
			b.Fatalf("frame %v: %v", info.Kind, err)
		}
	}
	a.stop()
	b.ReportMetric(float64(a.total)/float64(b.N*pts), "B/pt")
}

// BenchmarkDeltaReadFrame times sequential delta ReadFrames (Workers=1) of
// the frames BenchmarkDeltaAppend writes. At the end of the stream the
// reader seeks back with the timer stopped, replaying the keyframe.
func BenchmarkDeltaReadFrame(b *testing.B) {
	frames := deltaAllocFrames(2)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{Dims: []int{384, 320}, EB: 1e-2, Interval: maxInterval,
		Opts: core.Options{Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	const deltas = 32
	for i := 0; i <= deltas; i++ {
		if info, err := w.Append(frames[i%2]); err != nil || (i > 0 && info.Kind != KindDelta) {
			b.Fatalf("frame %d: %v %v", i, info.Kind, err)
		}
	}
	r, err := Parse(buf.Bytes(), core.DecompressOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the keyframe, then a delta frame to warm up
		if _, err := r.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
	pts := len(frames[0])
	b.SetBytes(int64(pts) * 4)
	b.ReportAllocs()
	var a allocMeter
	b.ResetTimer()
	a.start()
	for i := 0; i < b.N; i++ {
		if r.Pos() == r.Frames() {
			a.stop()
			b.StopTimer()
			if err := r.Seek(0); err != nil {
				b.Fatal(err)
			}
			if _, err := r.ReadFrame(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			a.start()
		}
		if _, err := r.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
	a.stop()
	b.ReportMetric(float64(a.total)/float64(b.N*pts), "B/pt")
}
