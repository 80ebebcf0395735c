package stream

import (
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"cliz/internal/core"
)

// RecordInfo locates one frame record inside a parsed stream. Tests and the
// conformance harness use it to target corruption at a specific frame.
type RecordInfo struct {
	Kind Kind
	// Index is the frame's position in the stream.
	Index int
	// Offset is the record header's byte offset.
	Offset int
	// PayloadOffset/PayloadLen frame the compressed payload bytes.
	PayloadOffset int
	PayloadLen    int
	// SyncIndex is the governing sync frame (the latest key/intra frame at
	// or before this one) — the replay start for a cold Seek to this frame.
	SyncIndex int
}

// Reader decodes a CliZ stream. Parse validates the header and the frame
// chain structurally (framing, indices, sync offsets); payload checksums are
// verified lazily when a frame is decoded, so opening a long stream is cheap.
//
// The Reader is positional: ReadFrame decodes the frame at the current
// position and advances, Seek repositions. A read that cannot continue from
// the held state replays from the target's governing sync frame — at most
// one keyframe interval of work, and bit-identical to sequential decode,
// because every frame's reconstruction is a pure function of the stream
// bytes.
type Reader struct {
	blob []byte
	h    streamHeader
	recs []record
	opt  core.DecompressOptions
	// delta decodes the delta frames.
	delta *core.Delta
	// cur holds the reconstruction of frame curFrame (-1 = none yet);
	// delta frames predict from it.
	cur      []float32
	alt      []float32
	curFrame int
	pos      int
}

// Parse opens a stream: it verifies the header checksum and scans every
// frame record, validating kinds, declared indices, sync-offset chaining and
// payload framing. Hostile input fails with an error wrapping
// core.ErrCorrupt and cannot trigger allocations the stream bytes cannot
// plausibly back.
func Parse(blob []byte, opt core.DecompressOptions) (*Reader, error) {
	h, pos, err := parseStreamHeader(blob)
	if err != nil {
		return nil, err
	}
	r := &Reader{blob: blob, h: h, opt: opt, curFrame: -1}
	lastSyncOff, lastSyncIdx := -1, -1
	for pos < len(blob) {
		rec, err := parseRecord(blob, &pos, len(r.recs), lastSyncOff, lastSyncIdx)
		if err != nil {
			return nil, err
		}
		if rec.kind.Sync() {
			lastSyncOff, lastSyncIdx = rec.off, len(r.recs)
		}
		r.recs = append(r.recs, rec)
	}
	r.delta, err = core.NewDelta(h.dims, h.mask, h.eb, h.radius, h.fill)
	if err != nil {
		return nil, corrupt(err)
	}
	return r, nil
}

// Frames returns the number of frames in the stream.
func (r *Reader) Frames() int { return len(r.recs) }

// Dims returns the per-frame extents.
func (r *Reader) Dims() []int { return append([]int(nil), r.h.dims...) }

// EB returns the stream's absolute error bound.
func (r *Reader) EB() float64 { return r.h.eb }

// Interval returns the declared keyframe interval.
func (r *Reader) Interval() int { return r.h.interval }

// Pos returns the index of the frame the next ReadFrame will decode.
func (r *Reader) Pos() int { return r.pos }

// Record returns the location and kind of frame t.
func (r *Reader) Record(t int) (RecordInfo, error) {
	if t < 0 || t >= len(r.recs) {
		return RecordInfo{}, fmt.Errorf("stream: frame %d out of range [0, %d)", t, len(r.recs))
	}
	rec := r.recs[t]
	return RecordInfo{
		Kind:          rec.kind,
		Index:         t,
		Offset:        rec.off,
		PayloadOffset: rec.payloadOff,
		PayloadLen:    rec.payloadLen,
		SyncIndex:     rec.syncIdx,
	}, nil
}

// Seek positions the reader so the next ReadFrame returns frame t. The call
// is lazy and cheap: the replay (from the governing sync frame, at most one
// keyframe interval of work) happens inside the next ReadFrame. Seeking and
// sequential reading yield bit-identical frames, because every frame's
// reconstruction is a pure function of the stream bytes.
func (r *Reader) Seek(t int) error {
	if t < 0 || t >= len(r.recs) {
		return fmt.Errorf("stream: seek to frame %d out of range [0, %d)", t, len(r.recs))
	}
	r.pos = t
	return nil
}

// ReadFrame decodes the frame at the current position, advances past it and
// returns a fresh copy of the reconstruction. At end of stream it returns
// io.EOF. A payload checksum mismatch or malformed payload is reported as a
// *FrameError naming the frame, wrapping core.ErrCorrupt.
func (r *Reader) ReadFrame() ([]float32, error) {
	if r.pos >= len(r.recs) {
		return nil, io.EOF
	}
	t := r.pos
	start := t
	if !r.recs[t].kind.Sync() {
		// A delta frame needs the reconstruction of t-1. Continue from the
		// held state when it lies inside this frame's replay chain; otherwise
		// replay from the governing sync frame.
		if r.curFrame >= r.recs[t].syncIdx && r.curFrame < t {
			start = r.curFrame + 1
		} else {
			start = r.recs[t].syncIdx
		}
	}
	for i := start; i <= t; i++ {
		if err := r.decodeFrame(i); err != nil {
			return nil, err
		}
	}
	r.pos = t + 1
	out := make([]float32, len(r.cur))
	copy(out, r.cur)
	return out, nil
}

// interrupted polls the configured Interrupt hook at frame boundaries.
func (r *Reader) interrupted() error {
	if r.opt.Interrupt == nil {
		return nil
	}
	if err := r.opt.Interrupt(); err != nil {
		return fmt.Errorf("%w: %w", core.ErrInterrupted, err)
	}
	return nil
}

// decodeFrame decodes frame t into r.cur. The caller guarantees the state
// invariant: for delta frames, r.cur holds the reconstruction of t-1.
func (r *Reader) decodeFrame(t int) error {
	if err := r.interrupted(); err != nil {
		return err
	}
	rec := r.recs[t]
	payload := r.blob[rec.payloadOff : rec.payloadOff+rec.payloadLen]
	if got := crc32.Checksum(payload, crcTable); got != rec.crc {
		return &FrameError{Frame: t, Err: ErrChecksum}
	}
	if rec.kind.Sync() {
		data, dims, err := core.DecompressWithOptions(payload, r.opt)
		if err != nil {
			return &FrameError{Frame: t, Err: corrupt(err)}
		}
		if len(data) != r.h.volume() || !slices.Equal(dims, r.h.dims) {
			return &FrameError{Frame: t,
				Err: fmt.Errorf("stream: frame dims %v do not match stream dims %v: %w",
					dims, r.h.dims, ErrCorrupt)}
		}
		r.cur = data
		r.curFrame = t
		return nil
	}
	if r.curFrame != t-1 || len(r.cur) != r.h.volume() {
		// Parse guarantees the chain starts at a sync frame and ReadFrame
		// replays in order, so this only fires if the decode-order invariant
		// is broken internally.
		return &FrameError{Frame: t,
			Err: fmt.Errorf("stream: delta frame without predecessor state: %w", ErrCorrupt)}
	}
	out := r.alt
	if len(out) != len(r.cur) {
		out = make([]float32, len(r.cur))
	}
	if err := r.delta.Decode(payload, r.cur, out, r.opt); err != nil {
		return &FrameError{Frame: t, Err: corrupt(err)}
	}
	r.alt, r.cur = r.cur, out
	r.curFrame = t
	return nil
}
