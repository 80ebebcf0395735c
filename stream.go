package cliz

import (
	"errors"
	"fmt"
	"io"

	"cliz/internal/core"
	"cliz/internal/stream"
)

// ErrCorrupt is the sentinel error wrapped by every decode-side rejection
// of malformed or damaged input — blob and stream alike. Use errors.Is to
// distinguish corruption from usage errors.
var ErrCorrupt = core.ErrCorrupt

// StreamFrameKind says how one frame of a stream was coded.
type StreamFrameKind int

const (
	// StreamKeyframe is an independently coded frame at the keyframe cadence.
	StreamKeyframe StreamFrameKind = iota
	// StreamDelta is a frame quantized against the reconstruction of its
	// predecessor.
	StreamDelta
	// StreamIntra is a frame coded independently because the temporal
	// residual lost to intra-frame prediction; like a keyframe, it is a sync
	// point that needs no replay.
	StreamIntra
)

// String names the kind ("key", "delta", "intra").
func (k StreamFrameKind) String() string { return stream.Kind(k).String() }

// StreamSpec describes the frames of a stream: every Append carries one
// timestep with these extents and mask.
type StreamSpec struct {
	// Name labels the stream's frames (trace and error messages only).
	Name string
	// Dims are the per-frame extents (rank 1..4); a frame is one timestep,
	// so Dims has no time axis of its own.
	Dims []int
	// MaskRegions is the optional horizontal mask map over the trailing two
	// dims (length lat·lon), exactly as in Dataset.
	MaskRegions []int32
	// FillValue is the sentinel stored at masked points.
	FillValue float32
}

// StreamFrameInfo reports what one StreamWriter.Append wrote.
type StreamFrameInfo struct {
	// Index is the frame's position in the stream.
	Index int
	// Kind says how the frame was coded.
	Kind StreamFrameKind
	// PayloadBytes is the compressed payload size.
	PayloadBytes int
	// RecordBytes is the full record size (header + payload).
	RecordBytes int
	// Offset is the record's byte offset in the stream.
	Offset int
}

// StreamWriter appends error-bounded timesteps to an io.Writer. Each frame
// is predicted from the decoder-visible reconstruction of the previous one
// (falling back to intra-frame coding when the temporal residual loses), so
// the error bound holds on every frame with no drift, exactly as for
// independent blobs. Every WithKeyframeInterval-th frame is a keyframe, so
// a reader can seek anywhere by replaying at most one interval.
//
// The writer is not safe for concurrent use. Any encode or write error is
// sticky: the stream bytes before the failed frame remain a valid stream.
type StreamWriter struct {
	w    *stream.Writer
	dst  io.Writer
	cfg  stream.Config
	eb   ErrorBound
	spec StreamSpec
	err  error
}

// NewStreamWriter starts a stream on dst. The error bound may be relative:
// a Rel bound is resolved against the value range of the first appended
// frame (the stream header is written on the first Append). pipe configures
// keyframe/intra coding exactly as for Compress (nil selects the default).
// Accepted options: WithKeyframeInterval, WithContext, WithWorkers,
// WithEntropy, WithTrace.
func NewStreamWriter(dst io.Writer, spec StreamSpec, eb ErrorBound, pipe *Pipeline, opts ...Option) (*StreamWriter, error) {
	if dst == nil {
		return nil, errors.New("cliz: nil stream destination")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	// Validate the spec eagerly by round-tripping it through Dataset with a
	// placeholder frame; the real header write happens on the first Append.
	ds := spec.dataset(nil)
	vol := 1
	for _, d := range spec.Dims {
		if d < 1 {
			return nil, fmt.Errorf("cliz: non-positive frame extent in %v", spec.Dims)
		}
		vol *= d
	}
	ds.Data = make([]float32, vol)
	ids, err := ds.internal()
	if err != nil {
		return nil, err
	}
	sc := stream.Config{
		Name:     spec.Name,
		Dims:     spec.Dims,
		Mask:     ids.Mask,
		Fill:     spec.FillValue,
		Interval: cfg.keyframe,
		Opts: core.Options{
			Trace:     cfg.trace.collector(),
			Workers:   cfg.workers,
			Entropy:   cfg.entropy,
			Interrupt: cfg.interrupt(),
		},
	}
	if pipe != nil {
		if pipe.p.Perm == nil {
			return nil, errors.New(
				"cliz: zero-value Pipeline; use AutoTune or DefaultPipeline, or pass nil for the default")
		}
		p := pipe.p
		sc.Pipe = &p
	}
	return &StreamWriter{dst: dst, cfg: sc, eb: eb, spec: spec}, nil
}

// dataset wraps one frame of the stream as a Dataset.
func (s StreamSpec) dataset(frame []float32) *Dataset {
	return &Dataset{
		Name:        s.Name,
		Data:        frame,
		Dims:        s.Dims,
		MaskRegions: s.MaskRegions,
		FillValue:   s.FillValue,
	}
}

// start resolves the error bound against the first frame and writes the
// stream header.
func (w *StreamWriter) start(frame []float32) error {
	ids, err := w.spec.dataset(frame).internal()
	if err != nil {
		return err
	}
	abs, err := w.eb.resolve(ids)
	if err != nil {
		return err
	}
	w.cfg.EB = abs
	sw, err := stream.NewWriter(w.dst, w.cfg)
	if err != nil {
		return err
	}
	w.w = sw
	return nil
}

// Append compresses one timestep and writes its frame record. The frame
// slice is not retained.
func (w *StreamWriter) Append(frame []float32) (StreamFrameInfo, error) {
	if w.err != nil {
		return StreamFrameInfo{}, w.err
	}
	if w.w == nil {
		if err := w.start(frame); err != nil {
			w.err = err
			return StreamFrameInfo{}, err
		}
	}
	info, err := w.w.Append(frame)
	if err != nil {
		return StreamFrameInfo{}, err
	}
	return StreamFrameInfo{
		Index:        info.Index,
		Kind:         StreamFrameKind(info.Kind),
		PayloadBytes: info.PayloadBytes,
		RecordBytes:  info.RecordBytes,
		Offset:       info.Offset,
	}, nil
}

// Frames returns the number of frames appended so far.
func (w *StreamWriter) Frames() int {
	if w.w == nil {
		return 0
	}
	return w.w.Frames()
}

// Close marks the stream complete and blocks further appends. A stream
// closed before any Append requires an absolute bound (a relative bound has
// no frame to resolve against); the header of such an empty stream is
// written by Close itself.
func (w *StreamWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.w == nil {
		if w.eb.Abs <= 0 || w.eb.Rel != 0 {
			w.err = errors.New("cliz: closing an empty stream with a relative bound; append a frame or use Abs")
			return w.err
		}
		w.cfg.EB = w.eb.Abs
		sw, err := stream.NewWriter(w.dst, w.cfg)
		if err != nil {
			w.err = err
			return err
		}
		w.w = sw
	}
	return w.w.Close()
}

// StreamReader decodes a stream produced by StreamWriter. It is positional:
// ReadFrame decodes the frame at the current position and advances, Seek
// repositions. Seeking replays from the nearest preceding sync frame — at
// most one keyframe interval of work — and yields frames bit-identical to
// sequential decode. The reader is not safe for concurrent use.
type StreamReader struct {
	r *stream.Reader
}

// NewStreamReader opens a stream held in memory. The header and every frame
// record are validated structurally up front (hostile input fails with an
// error wrapping ErrCorrupt and never panics); payload checksums are
// verified when a frame is decoded. Accepted options: WithContext,
// WithWorkers, WithTrace, WithBoundCheck.
func NewStreamReader(blob []byte, opts ...Option) (*StreamReader, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	r, err := stream.Parse(blob, core.DecompressOptions{
		Workers:         cfg.workers,
		Trace:           cfg.trace.collector(),
		BoundCheckEvery: cfg.boundEvery,
		Interrupt:       cfg.interrupt(),
	})
	if err != nil {
		return nil, err
	}
	return &StreamReader{r: r}, nil
}

// Frames returns the number of frames in the stream.
func (r *StreamReader) Frames() int { return r.r.Frames() }

// Dims returns the per-frame extents.
func (r *StreamReader) Dims() []int { return r.r.Dims() }

// ErrorBound returns the stream's absolute error bound (a relative bound is
// resolved at write time and stored absolute).
func (r *StreamReader) ErrorBound() float64 { return r.r.EB() }

// KeyframeInterval returns the stream's declared keyframe interval.
func (r *StreamReader) KeyframeInterval() int { return r.r.Interval() }

// Pos returns the index of the frame the next ReadFrame will decode.
func (r *StreamReader) Pos() int { return r.r.Pos() }

// FrameKind returns how frame t was coded.
func (r *StreamReader) FrameKind(t int) (StreamFrameKind, error) {
	rec, err := r.r.Record(t)
	if err != nil {
		return 0, err
	}
	return StreamFrameKind(rec.Kind), nil
}

// Seek positions the reader so the next ReadFrame returns frame t.
func (r *StreamReader) Seek(t int) error { return r.r.Seek(t) }

// ReadFrame decodes the frame at the current position, advances past it and
// returns a fresh copy of the reconstruction. At end of stream it returns
// io.EOF. Damage inside a frame's payload is reported as an error naming
// the frame and wrapping ErrCorrupt — never a panic.
func (r *StreamReader) ReadFrame() ([]float32, error) { return r.r.ReadFrame() }

// compile-time checks that the public frame kinds line up with the internal
// ones (StreamFrameKind values convert directly to stream.Kind).
var (
	_ = [1]struct{}{}[int(StreamKeyframe)-int(stream.KindKey)]
	_ = [1]struct{}{}[int(StreamDelta)-int(stream.KindDelta)]
	_ = [1]struct{}{}[int(StreamIntra)-int(stream.KindIntra)]
)
