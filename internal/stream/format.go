// Package stream implements the CliZ temporal streaming container: an
// append-oriented sequence where each timestep is either a sync frame (an
// independent CliZ blob) or a delta frame whose every point is quantized
// against the decoder-visible reconstruction of the previous frame. Both
// kinds of frame are coded by internal/core — sync frames by the blob
// codec, delta frames by core.Delta, whose bins and literals go through the
// residual coder a blob uses — so this package keeps only the container:
// framing, checksums, the keyframe schedule and intra fallback, and Seek.
//
// Predicting from the *reconstruction* rather than the original data is the
// SZ3 correctness discipline: the quantizer verifies each point against the
// value the decoder will hold, so the absolute error bound holds per frame
// with zero drift accumulation no matter how long the stream runs.
//
// Stream layout (all integers uvarint unless noted):
//
//	magic "CLZS" | version 1 | flags | eb float64 LE | fill float32 LE
//	radius | ndims | dims... | keyframe interval
//	mask section (flagStreamMask: length + mask.Serialize bytes)
//	CRC-32C uint32 LE over every header byte so far
//	frame records, appended in time order:
//	  kind byte | frame index | sync offset | payload length
//	  | payload CRC-32C uint32 LE | payload
//
// The frame index must equal the record's position in the stream and the
// sync offset must point at the byte offset of the governing sync record
// (the record's own offset for key/intra frames), so a scan validates the
// chain structurally before any payload is touched. Key and intra payloads
// are full CliZ blobs; delta payloads are two uvarint-framed sections, the
// layout of a blob's bins and literals sections: the entropy-coded
// quantization bins of the valid points, then the float32 LE literals, each
// put through the lossless backend.
//
// There is no footer: a stream truncated at a record boundary is a valid
// shorter stream, which is exactly the crash semantics an append workload
// wants. Truncation inside a record is reported as corruption.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"cliz/internal/core"
	"cliz/internal/mask"
)

const (
	streamMagic   = "CLZS"
	streamVersion = 1
)

// flagStreamMask marks a horizontal mask section in the header.
const flagStreamMask byte = 1 << 0

// crcTable is the Castagnoli (CRC-32C) table, matching the core blob format.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Kind classifies one frame record.
type Kind byte

const (
	// KindKey is a scheduled keyframe: an independent CliZ blob.
	KindKey Kind = iota
	// KindDelta is a temporal delta against the previous reconstruction.
	KindDelta
	// KindIntra is an off-schedule independent frame: the writer fell back
	// to intra-frame prediction because the temporal residual lost.
	KindIntra
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindKey:
		return "key"
	case KindDelta:
		return "delta"
	case KindIntra:
		return "intra"
	}
	return fmt.Sprintf("kind-%d", byte(k))
}

// Sync reports whether a frame of this kind decodes without a predecessor
// (and therefore starts a new replay chain for Seek).
func (k Kind) Sync() bool { return k == KindKey || k == KindIntra }

// Hard resource caps for untrusted streams, mirroring the core decode caps:
// a hostile header must not trigger allocations the payload cannot back.
const (
	// maxStreamRank bounds the per-frame rank (frames are core datasets).
	maxStreamRank = 4
	// maxFrameVolume caps the per-frame point count a stream may declare.
	maxFrameVolume = 1 << 31
	// maxPointsPerByte caps declared frame points per stream byte (the same
	// margin argument as the core cap: the densest legitimate encodings stay
	// thousands of times below it).
	maxPointsPerByte = 1 << 16
	// maxInterval bounds the declared keyframe interval.
	maxInterval = 1 << 20
)

// ErrCorrupt reports a malformed CliZ stream. It wraps core.ErrCorrupt so
// the package-spanning errors.Is(err, core.ErrCorrupt) contract holds for
// stream corruption too.
var ErrCorrupt = fmt.Errorf("stream: corrupt CliZ stream: %w", core.ErrCorrupt)

// ErrChecksum reports a CRC-32C mismatch on a stream header or frame
// payload. It wraps ErrCorrupt.
var ErrChecksum = fmt.Errorf("stream: checksum mismatch: %w", ErrCorrupt)

// FrameError attributes a decode failure to one frame record, so a damaged
// frame surfaces as "frame 17 is bad" rather than an anonymous failure.
type FrameError struct {
	// Frame is the failing frame's index in the stream.
	Frame int
	Err   error
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("stream: frame %d: %v", e.Frame, e.Err)
}

func (e *FrameError) Unwrap() error { return e.Err }

// corrupt classifies a sub-package decode failure as stream corruption,
// preserving already-classified errors and interrupts.
func corrupt(err error) error {
	if err == nil || errors.Is(err, core.ErrCorrupt) || errors.Is(err, core.ErrInterrupted) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// streamHeader is the parsed stream preamble.
type streamHeader struct {
	flags    byte
	eb       float64
	fill     float32
	radius   int32
	dims     []int
	interval int
	mask     *mask.Map
}

func (h *streamHeader) volume() int {
	v := 1
	for _, d := range h.dims {
		v *= d
	}
	return v
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func readUvarint(src []byte, pos *int) (uint64, error) {
	v, n := binary.Uvarint(src[*pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	*pos += n
	return v, nil
}

// encodeStreamHeader renders the preamble including its trailing CRC-32C.
func encodeStreamHeader(h streamHeader) []byte {
	out := make([]byte, 0, 64)
	out = append(out, streamMagic...)
	out = append(out, streamVersion, h.flags)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(h.eb))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint32(b8[:4], math.Float32bits(h.fill))
	out = append(out, b8[:4]...)
	out = appendUvarint(out, uint64(h.radius))
	out = appendUvarint(out, uint64(len(h.dims)))
	for _, d := range h.dims {
		out = appendUvarint(out, uint64(d))
	}
	out = appendUvarint(out, uint64(h.interval))
	if h.mask != nil {
		ms := h.mask.Serialize()
		out = appendUvarint(out, uint64(len(ms)))
		out = append(out, ms...)
	}
	binary.LittleEndian.PutUint32(b8[:4], crc32.Checksum(out, crcTable))
	return append(out, b8[:4]...)
}

// checkFrameBudget gates a declared frame volume against the hard caps and
// the stream size, so a hostile header cannot drive frame-sized allocations
// past what the stream bytes can plausibly back.
func checkFrameBudget(vol, avail int) error {
	if vol > maxFrameVolume {
		return fmt.Errorf("stream: declared frame volume %d exceeds cap %d: %w",
			vol, maxFrameVolume, ErrCorrupt)
	}
	if avail < 0 {
		avail = 0
	}
	if uint64(vol) > (uint64(avail)+64)*maxPointsPerByte {
		return fmt.Errorf("stream: declared frame volume %d implausible for %d stream bytes: %w",
			vol, avail, ErrCorrupt)
	}
	return nil
}

// parseStreamHeader parses and CRC-verifies the preamble, returning the
// number of bytes consumed.
func parseStreamHeader(src []byte) (streamHeader, int, error) {
	var h streamHeader
	pos := 0
	if len(src) < len(streamMagic)+2 {
		return h, 0, fmt.Errorf("stream: truncated header: %w", ErrCorrupt)
	}
	if string(src[:4]) != streamMagic {
		return h, 0, fmt.Errorf("stream: bad magic: %w", ErrCorrupt)
	}
	pos = 4
	if src[pos] != streamVersion {
		return h, 0, fmt.Errorf("stream: unsupported version %d: %w", src[pos], ErrCorrupt)
	}
	pos++
	h.flags = src[pos]
	pos++
	if len(src)-pos < 12 {
		return h, 0, fmt.Errorf("stream: truncated header: %w", ErrCorrupt)
	}
	h.eb = math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
	pos += 8
	h.fill = math.Float32frombits(binary.LittleEndian.Uint32(src[pos:]))
	pos += 4
	if h.eb <= 0 || math.IsNaN(h.eb) || math.IsInf(h.eb, 0) {
		return h, 0, fmt.Errorf("stream: invalid error bound %g: %w", h.eb, ErrCorrupt)
	}
	r, err := readUvarint(src, &pos)
	if err != nil || r < 2 || r > 1<<30 {
		return h, 0, fmt.Errorf("stream: invalid radius: %w", ErrCorrupt)
	}
	h.radius = int32(r)
	nd, err := readUvarint(src, &pos)
	if err != nil || nd < 1 || nd > maxStreamRank {
		return h, 0, fmt.Errorf("stream: invalid frame rank: %w", ErrCorrupt)
	}
	h.dims = make([]int, nd)
	vol := 1
	for i := range h.dims {
		d, err := readUvarint(src, &pos)
		if err != nil || d == 0 || d > maxFrameVolume {
			return h, 0, fmt.Errorf("stream: invalid frame extent: %w", ErrCorrupt)
		}
		// Overflow-safe volume accumulation, as in the core header parser.
		if int(d) > maxFrameVolume/vol {
			return h, 0, fmt.Errorf("stream: frame volume too large: %w", ErrCorrupt)
		}
		h.dims[i] = int(d)
		vol *= int(d)
	}
	if err := checkFrameBudget(vol, len(src)); err != nil {
		return h, 0, err
	}
	iv, err := readUvarint(src, &pos)
	if err != nil || iv == 0 || iv > maxInterval {
		return h, 0, fmt.Errorf("stream: invalid keyframe interval: %w", ErrCorrupt)
	}
	h.interval = int(iv)
	var maskSec []byte
	masked := h.flags&flagStreamMask != 0
	if masked {
		ml, err := readUvarint(src, &pos)
		if err != nil || ml > uint64(len(src)-pos) {
			return h, 0, fmt.Errorf("stream: truncated mask section: %w", ErrCorrupt)
		}
		maskSec = src[pos : pos+int(ml)]
		pos += int(ml)
	}
	if len(src)-pos < 4 {
		return h, 0, fmt.Errorf("stream: truncated header checksum: %w", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(src[pos:])
	if got := crc32.Checksum(src[:pos], crcTable); got != want {
		return h, 0, fmt.Errorf("stream: header: %w", ErrChecksum)
	}
	// The mask section is inflated only once the checksum vouches for it.
	if masked {
		m, err := mask.Parse(maskSec)
		if err != nil {
			return h, 0, corrupt(err)
		}
		if len(h.dims) < 2 || m.NLat != h.dims[len(h.dims)-2] || m.NLon != h.dims[len(h.dims)-1] {
			return h, 0, fmt.Errorf("stream: mask %dx%d does not fit frame dims %v: %w",
				m.NLat, m.NLon, h.dims, ErrCorrupt)
		}
		h.mask = m
	}
	pos += 4
	return h, pos, nil
}

// record locates one parsed frame record inside the stream.
type record struct {
	kind Kind
	// off is the byte offset of the record header.
	off int
	// payloadOff/payloadLen frame the payload bytes.
	payloadOff int
	payloadLen int
	crc        uint32
	// syncIdx is the frame index of the governing sync frame (the latest
	// key/intra frame at or before this one).
	syncIdx int
}

// appendRecordHeader renders one frame-record header. syncOff is the byte
// offset of the governing sync record; crc covers the payload.
func appendRecordHeader(dst []byte, kind Kind, index, syncOff, payloadLen int, crc uint32) []byte {
	dst = append(dst, byte(kind))
	dst = appendUvarint(dst, uint64(index))
	dst = appendUvarint(dst, uint64(syncOff))
	dst = appendUvarint(dst, uint64(payloadLen))
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], crc)
	return append(dst, b4[:]...)
}

// parseRecord parses the frame record starting at *pos, validating the
// declared index against the scan position and the sync offset against the
// chain built so far (lastSyncOff < 0 means no sync frame seen yet). The
// payload CRC is recorded but deliberately not verified here — that happens
// lazily at decode time so opening a long stream stays cheap.
func parseRecord(src []byte, pos *int, index, lastSyncOff, lastSyncIdx int) (record, error) {
	rec := record{off: *pos}
	if len(src)-*pos < 1 {
		return rec, fmt.Errorf("stream: truncated frame record: %w", ErrCorrupt)
	}
	rec.kind = Kind(src[*pos])
	if rec.kind >= numKinds {
		return rec, fmt.Errorf("stream: unknown frame kind %d: %w", byte(rec.kind), ErrCorrupt)
	}
	*pos++
	idx, err := readUvarint(src, pos)
	if err != nil || idx != uint64(index) {
		// Catches reordered, spliced and index-overflowed records: the
		// declared index must equal the record's position in the stream.
		return rec, fmt.Errorf("stream: frame %d declares index %d: %w", index, idx, ErrCorrupt)
	}
	syncOff, err := readUvarint(src, pos)
	if err != nil {
		return rec, fmt.Errorf("stream: frame %d: bad sync offset: %w", index, ErrCorrupt)
	}
	if rec.kind.Sync() {
		if syncOff != uint64(rec.off) {
			return rec, fmt.Errorf("stream: sync frame %d declares offset %d, is at %d: %w",
				index, syncOff, rec.off, ErrCorrupt)
		}
		rec.syncIdx = index
	} else {
		if lastSyncOff < 0 || syncOff != uint64(lastSyncOff) {
			// Delta frames must reference the actual preceding sync record; a
			// first-frame delta or an out-of-range offset breaks the chain.
			return rec, fmt.Errorf("stream: frame %d sync offset %d out of range (latest sync at %d): %w",
				index, syncOff, lastSyncOff, ErrCorrupt)
		}
		rec.syncIdx = lastSyncIdx
	}
	pl, err := readUvarint(src, pos)
	if err != nil {
		return rec, fmt.Errorf("stream: frame %d: bad payload length: %w", index, ErrCorrupt)
	}
	// Signed remainder first: a negative value cast to uint64 would wrap.
	rem := len(src) - *pos - 4
	if rem < 0 || pl > uint64(rem) {
		return rec, fmt.Errorf("stream: frame %d payload truncated: %w", index, ErrCorrupt)
	}
	rec.crc = binary.LittleEndian.Uint32(src[*pos:])
	*pos += 4
	rec.payloadOff = *pos
	rec.payloadLen = int(pl)
	*pos += int(pl)
	return rec, nil
}
