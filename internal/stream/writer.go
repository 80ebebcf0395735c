package stream

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"cliz/internal/core"
	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/lossless"
	"cliz/internal/mask"
	"cliz/internal/quant"
)

// DefaultKeyframeInterval is the keyframe spacing when Config.Interval is 0:
// every 16th frame is independently decodable, so Seek replays at most 15
// delta frames.
const DefaultKeyframeInterval = 16

// Config parameterizes a stream writer.
type Config struct {
	// Name labels the frame datasets (trace and error messages only).
	Name string
	// Dims are the per-frame extents (rank 1..4).
	Dims []int
	// Mask is the optional horizontal mask over the frame's trailing two
	// dims; masked points carry Fill and are not encoded.
	Mask *mask.Map
	// Fill is the sentinel stored at masked points.
	Fill float32
	// EB is the absolute error bound every frame's reconstruction satisfies.
	EB float64
	// Interval is the keyframe interval (every Interval-th frame is a
	// keyframe); 0 selects DefaultKeyframeInterval, 1 makes every frame a
	// keyframe.
	Interval int
	// Pipe is the intra-frame pipeline for key/intra frames; nil selects the
	// default. Period and Template are forced off (frames have no interior
	// time axis) and UseMask follows Mask.
	Pipe *core.Pipeline
	// Opts carries the shared implementation knobs: workers, entropy kind,
	// quantizer radius, lossless backend, trace, interrupt.
	Opts core.Options
}

// FrameInfo reports what one Append wrote.
type FrameInfo struct {
	// Index is the frame's position in the stream.
	Index int
	// Kind says how the frame was coded.
	Kind Kind
	// PayloadBytes is the compressed payload size.
	PayloadBytes int
	// RecordBytes is the full record size (header + payload).
	RecordBytes int
	// Offset is the record's byte offset in the stream.
	Offset int
}

// Writer appends error-bounded frames to an io.Writer. Frames arrive one
// timestep at a time; every Interval-th frame is a keyframe, the rest are
// delta-coded against the previous frame's reconstruction unless the
// temporal residual loses to intra-frame prediction.
type Writer struct {
	w   io.Writer
	cfg Config
	q   quant.Quantizer
	// pipe is the resolved intra-frame pipeline.
	pipe core.Pipeline
	// valid is the broadcast per-point validity (nil when unmasked).
	valid      []bool
	validCount int
	// prev holds the reconstruction of the last appended frame — exactly
	// the state the decoder holds after reading it.
	prev    []float32
	scratch []float32
	// lastIntraBytes is the payload size of the last key/intra frame: the
	// baseline the delta-fallback heuristic compares against.
	lastIntraBytes int
	n              int
	off            int
	lastSyncOff    int
	err            error
	closed         bool
}

// NewWriter validates the configuration, writes the stream header to w and
// returns a Writer ready for Append. The header is written eagerly so a
// stream with zero frames is still a parseable (empty) stream.
func NewWriter(w io.Writer, cfg Config) (*Writer, error) {
	if w == nil {
		return nil, errors.New("stream: nil writer")
	}
	if len(cfg.Dims) < 1 || len(cfg.Dims) > maxStreamRank {
		return nil, fmt.Errorf("stream: frame rank %d not in 1..%d", len(cfg.Dims), maxStreamRank)
	}
	vol := 1
	for _, d := range cfg.Dims {
		if d < 1 {
			return nil, fmt.Errorf("stream: non-positive frame extent in %v", cfg.Dims)
		}
		if d > maxFrameVolume/vol {
			return nil, fmt.Errorf("stream: frame volume of %v exceeds cap %d", cfg.Dims, maxFrameVolume)
		}
		vol *= d
	}
	if cfg.EB <= 0 || cfg.EB != cfg.EB || cfg.EB > 1e308 {
		return nil, fmt.Errorf("stream: error bound must be positive and finite, got %g", cfg.EB)
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultKeyframeInterval
	}
	if cfg.Interval < 1 || cfg.Interval > maxInterval {
		return nil, fmt.Errorf("stream: keyframe interval %d not in 1..%d", cfg.Interval, maxInterval)
	}
	radius := cfg.Opts.Radius
	if radius == 0 {
		radius = quant.DefaultRadius
	}
	sw := &Writer{
		w:   w,
		cfg: cfg,
		q:   quant.New(cfg.EB, radius),
	}
	if cfg.Mask != nil {
		if len(cfg.Dims) < 2 {
			return nil, errors.New("stream: mask requires frame rank >= 2")
		}
		valid, err := cfg.Mask.Broadcast(cfg.Dims)
		if err != nil {
			return nil, err
		}
		sw.valid = valid
		for _, ok := range valid {
			if ok {
				sw.validCount++
			}
		}
	} else {
		sw.validCount = vol
	}
	// Resolve the intra-frame pipeline once; every key/intra frame reuses it.
	if cfg.Pipe != nil {
		sw.pipe = *cfg.Pipe
	} else {
		sw.pipe = core.Default(sw.frameDataset(make([]float32, vol)))
	}
	sw.pipe.Period = 0
	sw.pipe.Template = nil
	sw.pipe.UseMask = cfg.Mask != nil
	if err := sw.pipe.Validate(len(cfg.Dims)); err != nil {
		return nil, err
	}
	h := streamHeader{
		eb:       cfg.EB,
		fill:     cfg.Fill,
		radius:   radius,
		dims:     cfg.Dims,
		interval: cfg.Interval,
		mask:     cfg.Mask,
	}
	if cfg.Mask != nil {
		h.flags |= flagStreamMask
	}
	hdr := encodeStreamHeader(h)
	if _, err := w.Write(hdr); err != nil {
		sw.err = err
		return nil, err
	}
	sw.off = len(hdr)
	sw.lastSyncOff = -1
	return sw, nil
}

// Frames returns the number of frames appended so far.
func (w *Writer) Frames() int { return w.n }

// frameDataset wraps one frame as a core dataset for intra compression.
func (w *Writer) frameDataset(frame []float32) *dataset.Dataset {
	name := w.cfg.Name
	if name == "" {
		name = "stream-frame"
	}
	return &dataset.Dataset{
		Name:      name,
		Data:      frame,
		Dims:      w.cfg.Dims,
		Mask:      w.cfg.Mask,
		FillValue: w.cfg.Fill,
	}
}

// interrupted polls the configured Interrupt hook at frame boundaries.
func (w *Writer) interrupted() error {
	if w.cfg.Opts.Interrupt == nil {
		return nil
	}
	if err := w.cfg.Opts.Interrupt(); err != nil {
		return fmt.Errorf("%w: %w", core.ErrInterrupted, err)
	}
	return nil
}

// Append compresses one frame and writes its record. The frame slice is not
// retained. Any write or encode error is sticky: the Writer refuses further
// appends, because a half-written record leaves the stream tail unusable.
func (w *Writer) Append(frame []float32) (FrameInfo, error) {
	if w.err != nil {
		return FrameInfo{}, w.err
	}
	if w.closed {
		return FrameInfo{}, errors.New("stream: append after Close")
	}
	if err := w.interrupted(); err != nil {
		return FrameInfo{}, err
	}
	vol := 1
	for _, d := range w.cfg.Dims {
		vol *= d
	}
	if len(frame) != vol {
		return FrameInfo{}, fmt.Errorf("stream: frame has %d points, want %d", len(frame), vol)
	}

	kind := KindDelta
	var payload []byte
	var recon []float32
	if w.n%w.cfg.Interval == 0 {
		kind = KindKey
		var err error
		payload, recon, err = w.encodeIntra(frame)
		if err != nil {
			w.err = err
			return FrameInfo{}, err
		}
	} else {
		var lits int
		var err error
		payload, recon, lits, err = w.encodeDelta(frame)
		if err != nil {
			w.err = err
			return FrameInfo{}, err
		}
		// Fallback: when the temporal residual lost — many unpredictable
		// points (the residual left the quantizer range) or a payload close
		// to the last intra-coded frame's — try intra-frame prediction and
		// keep the smaller encoding. Intra frames double as sync points.
		tryIntra := 8*lits >= w.validCount ||
			(w.lastIntraBytes > 0 && 4*len(payload) >= 3*w.lastIntraBytes)
		if tryIntra {
			ipay, irecon, err := w.encodeIntra(frame)
			if err != nil {
				w.err = err
				return FrameInfo{}, err
			}
			if len(ipay) < len(payload) {
				kind = KindIntra
				payload, recon = ipay, irecon
			}
		}
	}

	syncOff := w.lastSyncOff
	if kind.Sync() {
		syncOff = w.off
	}
	hdr := appendRecordHeader(nil, kind, w.n, syncOff, len(payload),
		crc32.Checksum(payload, crcTable))
	if _, err := w.w.Write(hdr); err != nil {
		w.err = err
		return FrameInfo{}, err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
		return FrameInfo{}, err
	}
	info := FrameInfo{
		Index:        w.n,
		Kind:         kind,
		PayloadBytes: len(payload),
		RecordBytes:  len(hdr) + len(payload),
		Offset:       w.off,
	}
	if kind.Sync() {
		w.lastSyncOff = w.off
		w.lastIntraBytes = len(payload)
	}
	w.off += info.RecordBytes
	w.prev = recon
	w.n++
	return info, nil
}

// Close marks the stream complete. The format has no footer (a prefix of a
// stream is a valid stream), so Close only blocks further appends.
func (w *Writer) Close() error {
	w.closed = true
	return w.err
}

// encodeIntra compresses the frame as an independent CliZ blob and returns
// the payload plus the decoder-identical reconstruction.
func (w *Writer) encodeIntra(frame []float32) ([]byte, []float32, error) {
	return core.CompressWithRecon(w.frameDataset(frame), w.cfg.EB, w.pipe, w.cfg.Opts)
}

// encodeDelta quantizes every valid point against the previous frame's
// reconstruction. It returns the payload, the new reconstruction and the
// literal (unpredictable-point) count that feeds the fallback heuristic.
func (w *Writer) encodeDelta(frame []float32) ([]byte, []float32, int, error) {
	if len(w.prev) != len(frame) {
		return nil, nil, 0, errors.New("stream: delta frame without a predecessor")
	}
	recon := w.scratch
	if len(recon) != len(frame) {
		recon = make([]float32, len(frame))
	}
	w.scratch = w.prev // recycle the retiring buffer next Append
	syms := make([]uint32, 0, w.validCount)
	var lits []float32
	for i, orig := range frame {
		// Cancellation must reach a delta encode mid-frame: one frame can be
		// hundreds of MiB, far past the frame-boundary poll in Append.
		if i&0xffff == 0 {
			if err := w.interrupted(); err != nil {
				return nil, nil, 0, err
			}
		}
		if w.valid != nil && !w.valid[i] {
			recon[i] = w.cfg.Fill
			continue
		}
		bin, rv, exact := w.q.Quantize(float64(w.prev[i]), float64(orig))
		if exact {
			syms = append(syms, 0)
			lits = append(lits, orig)
			recon[i] = orig
			continue
		}
		syms = append(syms, uint32(bin))
		recon[i] = float32(rv)
	}
	workers := w.cfg.Opts.Workers
	if workers < 1 {
		workers = 1
	}
	binsSec := lossless.Encode(w.cfg.Opts.Backend, entropy.EncodeBlockSharded(w.cfg.Opts.Entropy, syms, workers))
	litSec := lossless.Encode(w.cfg.Opts.Backend, float32sToBytes(lits))
	payload := make([]byte, 0, len(binsSec)+len(litSec)+2*10)
	payload = appendUvarint(payload, uint64(len(binsSec)))
	payload = append(payload, binsSec...)
	payload = appendUvarint(payload, uint64(len(litSec)))
	payload = append(payload, litSec...)
	return payload, recon, len(lits), nil
}
