package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"cliz/internal/grid"
	"cliz/internal/predict"
)

// Blob layout (all integers varint unless noted):
//
//	magic "CLZ1" | version 1|2|3 | flags | eb float64 | fill float32 | radius
//	ndims | dims... | perm bytes | fusion group count | groups... | period
//	level alpha float64 | psections (version >= 2; v1 implies 1)
//	section directory (version 3 only):
//	  nsections | per section: id byte + CRC-32C uint32 LE of the payload
//	  | CRC-32C uint32 LE over every header+directory byte so far
//	sections (each uvarint length + payload), in order:
//	  mask        (flagMask)
//	  template    (flagPeriodic; nested full blob)
//	  residual    (flagPeriodic; nested full blob)  — periodic blobs stop here
//	  meta        (flagClassify)
//	  streamA     (always for unit blobs; the single stream when !classify)
//	  streamB     (flagClassify)
//	  literals    (always for unit blobs)
//
// psections is the number of contiguous predict/reconstruct sections the
// fused leading dimension was cut into at encode time; the decoder replays
// the same partition (possibly in parallel), so decode output never depends
// on the decode-side worker count. Version 2 writers may also emit sharded
// entropy blocks (entropy.Sharded) inside streamA/streamB; v1 readers would
// reject those, which is why emitting them bumps the version.
//
// Version 3 adds integrity: the header and directory are covered by one
// CRC-32C (Castagnoli), and every section payload by its own, so any
// single-byte corruption anywhere in the blob is detected and attributed to
// a named section before its bytes are interpreted. v1/v2 blobs carry no
// directory and still decode bit-exactly.
const (
	magic    = "CLZ1"
	version1 = 1
	version2 = 2
	version3 = 3
)

// crcTable is the Castagnoli (CRC-32C) table shared by all integrity checks.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Section ids of the v3 directory. The id makes the directory
// self-describing: a verifier can name a damaged section without trusting
// the flag logic that ordered it.
const (
	secMask byte = iota
	secTemplate
	secResidual
	secClassMeta
	secBinsA
	secBinsB
	secBins
	secLiterals
	numSectionIDs
)

var sectionNames = [numSectionIDs]string{
	"mask", "template", "residual", "class-meta", "bins-A", "bins-B", "bins", "literals",
}

func sectionName(id byte) string {
	if int(id) < len(sectionNames) {
		return sectionNames[id]
	}
	return fmt.Sprintf("section-%d", id)
}

// Hard resource caps for untrusted input. A hostile header must not be able
// to trigger allocations the payload cannot plausibly back.
const (
	// maxSections bounds the v3 directory (real blobs need at most 5).
	maxSections = 16
	// maxDecodeVolume caps the point count a single blob may declare at
	// decode time (format-level parsing allows more; Inspect stays cheap).
	maxDecodeVolume = 1 << 31
	// maxPointsPerByte caps declared points per remaining payload byte. The
	// densest legitimate encodings (near-constant or almost fully masked
	// fields: ~1 bit/point Huffman then ~1000x flate) stay under ~8k
	// points/byte, so 64k leaves an 8x margin while capping a 40-byte
	// hostile header to a few-MB allocation instead of gigabytes.
	maxPointsPerByte = 1 << 16
)

const (
	flagMask byte = 1 << iota
	flagClassify
	flagCubic
	flagPeriodic
	// flagPointMask marks an arbitrary per-point validity bitmap instead of
	// a horizontal mask-map (used for the tuner's concatenated samples).
	flagPointMask
	// flagLorenzo selects the Lorenzo predictor (overrides flagCubic).
	flagLorenzo
)

// ErrCorrupt reports a malformed CliZ blob.
var ErrCorrupt = errors.New("core: corrupt CliZ blob")

// ErrChecksum reports a v3 integrity-checksum mismatch. It wraps ErrCorrupt,
// so errors.Is(err, ErrCorrupt) remains true for all corruption classes.
var ErrChecksum = fmt.Errorf("checksum mismatch: %w", ErrCorrupt)

// SectionError attributes a decode failure to a named blob section.
type SectionError struct {
	Section string
	Err     error
}

func (e *SectionError) Error() string {
	return fmt.Sprintf("core: section %q: %v", e.Section, e.Err)
}

func (e *SectionError) Unwrap() error { return e.Err }

// corrupt classifies a decode-path failure from a sub-package (entropy,
// interp, lorenzo, mask, lossless, grid, ...) as blob corruption: the
// returned error wraps both the original error and ErrCorrupt, so callers
// can match either the specific sub-package sentinel or the umbrella
// errors.Is(err, ErrCorrupt) contract. nil and already-classified errors
// pass through unchanged.
func corrupt(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// dirEntry is one v3 section-directory record.
type dirEntry struct {
	id  byte
	crc uint32
}

type header struct {
	version byte
	flags   byte
	eb      float64
	fill    float32
	radius  int32
	dims    []int
	pipe    Pipeline
	// psections is the predict-section count recorded in v2+ blobs (always 1
	// for v1). It partitions the fused leading dimension for parallel
	// prediction/reconstruction.
	psections int
	// secs is the v3 section directory (nil for v1/v2 blobs).
	secs []dirEntry
	// integrityBytes counts the directory + checksum bytes a v3 header
	// spends on integrity (0 for v1/v2).
	integrityBytes int
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

func appendSection(dst, payload []byte) []byte {
	dst = appendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

func readSection(src []byte, pos *int) ([]byte, error) {
	l, err := readUvarint(src, pos)
	if err != nil {
		return nil, err
	}
	if l > uint64(len(src)-*pos) {
		return nil, ErrCorrupt
	}
	out := src[*pos : *pos+int(l)]
	*pos += int(l)
	return out, nil
}

func encodeHeader(h header) []byte {
	ver := h.version
	if ver == 0 {
		ver = version3
	}
	out := make([]byte, 0, 64)
	out = append(out, magic...)
	out = append(out, ver)
	out = append(out, h.flags)
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
	for _, p := range h.pipe.Perm {
		out = append(out, byte(p))
	}
	out = appendUvarint(out, uint64(len(h.pipe.Fusion.Groups)))
	for _, g := range h.pipe.Fusion.Groups {
		out = append(out, byte(g))
	}
	out = appendUvarint(out, uint64(h.pipe.Period))
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(h.pipe.LevelAlpha))
	out = append(out, b8[:]...)
	out = appendUvarint(out, uint64(h.psections))
	return out
}

// blobWriter assembles a v3 blob: header fields, the integrity directory
// (section id + payload CRC-32C per section, then one CRC-32C over every
// header and directory byte), and the section payloads.
type blobWriter struct {
	h    header
	ids  []byte
	secs [][]byte
}

func (w *blobWriter) add(id byte, payload []byte) {
	w.ids = append(w.ids, id)
	w.secs = append(w.secs, payload)
}

func (w *blobWriter) bytes() []byte {
	w.h.version = version3
	out := encodeHeader(w.h)
	total := len(out) + 1 + 5*len(w.ids) + 4
	for _, s := range w.secs {
		total += binary.MaxVarintLen64 + len(s)
	}
	buf := make([]byte, 0, total)
	buf = append(buf, out...)
	buf = appendUvarint(buf, uint64(len(w.ids)))
	var b4 [4]byte
	for i, id := range w.ids {
		buf = append(buf, id)
		binary.LittleEndian.PutUint32(b4[:], crc32.Checksum(w.secs[i], crcTable))
		buf = append(buf, b4[:]...)
	}
	binary.LittleEndian.PutUint32(b4[:], crc32.Checksum(buf, crcTable))
	buf = append(buf, b4[:]...)
	for _, s := range w.secs {
		buf = appendSection(buf, s)
	}
	return buf
}

// sectionReader walks the sections of one parsed blob in order. For v3
// headers every read cross-checks the expected section id and the payload
// CRC-32C against the directory before the bytes are handed out; v1/v2
// headers degrade to a plain framed read.
type sectionReader struct {
	h   *header
	idx int
}

func (r *sectionReader) next(src []byte, pos *int, id byte) ([]byte, error) {
	sec, err := readSection(src, pos)
	if err != nil {
		return nil, &SectionError{Section: sectionName(id), Err: err}
	}
	if r.h.version >= version3 {
		if r.idx >= len(r.h.secs) {
			return nil, &SectionError{Section: sectionName(id),
				Err: fmt.Errorf("section %d beyond %d-entry directory: %w", r.idx, len(r.h.secs), ErrCorrupt)}
		}
		ent := r.h.secs[r.idx]
		if ent.id != id {
			return nil, &SectionError{Section: sectionName(id),
				Err: fmt.Errorf("directory lists %q here: %w", sectionName(ent.id), ErrCorrupt)}
		}
		// The framing and directory entry line up, so the walk can continue
		// past a payload-checksum failure: advance before the CRC check.
		r.idx++
		if got := crc32.Checksum(sec, crcTable); got != ent.crc {
			return nil, &SectionError{Section: sectionName(id), Err: ErrChecksum}
		}
		return sec, nil
	}
	r.idx++
	return sec, nil
}

// done reports whether every directory entry was consumed (always true for
// v1/v2 blobs, which carry no directory).
func (r *sectionReader) done() bool {
	return r.h.version < version3 || r.idx == len(r.h.secs)
}

func parseHeader(src []byte, pos *int) (header, error) {
	var h header
	start := *pos
	if len(src)-*pos < len(magic)+2 {
		return h, ErrCorrupt
	}
	if string(src[*pos:*pos+4]) != magic {
		return h, fmt.Errorf("core: bad magic: %w", ErrCorrupt)
	}
	*pos += 4
	ver := src[*pos]
	if ver != version1 && ver != version2 && ver != version3 {
		return h, fmt.Errorf("core: unsupported version %d: %w", ver, ErrCorrupt)
	}
	h.version = ver
	*pos++
	h.flags = src[*pos]
	*pos++
	if len(src)-*pos < 12 {
		return h, ErrCorrupt
	}
	h.eb = math.Float64frombits(binary.LittleEndian.Uint64(src[*pos:]))
	*pos += 8
	h.fill = math.Float32frombits(binary.LittleEndian.Uint32(src[*pos:]))
	*pos += 4
	if h.eb <= 0 || math.IsNaN(h.eb) || math.IsInf(h.eb, 0) {
		return h, fmt.Errorf("core: invalid error bound %g: %w", h.eb, ErrCorrupt)
	}
	r, err := readUvarint(src, pos)
	if err != nil || r > 1<<30 {
		return h, ErrCorrupt
	}
	h.radius = int32(r)
	nd, err := readUvarint(src, pos)
	if err != nil || nd < 1 || nd > 8 {
		return h, ErrCorrupt
	}
	h.dims = make([]int, nd)
	vol := 1
	for i := range h.dims {
		d, err := readUvarint(src, pos)
		if err != nil || d == 0 || d > 1<<31 {
			return h, ErrCorrupt
		}
		h.dims[i] = int(d)
		// Overflow-safe: vol*d can wrap past 1<<64 and sneak under the cap.
		if int(d) > (1<<33)/vol {
			return h, fmt.Errorf("core: volume too large: %w", ErrCorrupt)
		}
		vol *= int(d)
	}
	if len(src)-*pos < int(nd) {
		return h, ErrCorrupt
	}
	h.pipe.Perm = make([]int, nd)
	for i := range h.pipe.Perm {
		h.pipe.Perm[i] = int(src[*pos])
		*pos++
	}
	if !grid.ValidPerm(h.pipe.Perm, int(nd)) {
		return h, ErrCorrupt
	}
	ng, err := readUvarint(src, pos)
	if err != nil || ng == 0 || ng > nd {
		return h, ErrCorrupt
	}
	if len(src)-*pos < int(ng) {
		return h, ErrCorrupt
	}
	h.pipe.Fusion.Groups = make([]int, ng)
	for i := range h.pipe.Fusion.Groups {
		h.pipe.Fusion.Groups[i] = int(src[*pos])
		*pos++
	}
	if !h.pipe.Fusion.Valid(int(nd)) {
		return h, ErrCorrupt
	}
	p, err := readUvarint(src, pos)
	if err != nil || p > uint64(h.dims[0]) {
		return h, ErrCorrupt
	}
	h.pipe.Period = int(p)
	if len(src)-*pos < 8 {
		return h, ErrCorrupt
	}
	h.pipe.LevelAlpha = math.Float64frombits(binary.LittleEndian.Uint64(src[*pos:]))
	*pos += 8
	if h.pipe.LevelAlpha < 0 || math.IsNaN(h.pipe.LevelAlpha) || h.pipe.LevelAlpha > 1e6 {
		return h, ErrCorrupt
	}
	h.psections = 1
	if ver >= version2 {
		// Sections partition the fused leading dimension, so the count can
		// never exceed that extent.
		lead := 1
		for j := 0; j < h.pipe.Fusion.Groups[0]; j++ {
			lead *= h.dims[h.pipe.Perm[j]]
		}
		ps, err := readUvarint(src, pos)
		if err != nil || ps == 0 || ps > uint64(lead) {
			return h, ErrCorrupt
		}
		h.psections = int(ps)
	}
	if ver >= version3 {
		dirStart := *pos
		ns, err := readUvarint(src, pos)
		if err != nil || ns > maxSections {
			return h, fmt.Errorf("core: section directory: %w", ErrCorrupt)
		}
		if len(src)-*pos < int(ns)*5+4 {
			return h, fmt.Errorf("core: section directory truncated: %w", ErrCorrupt)
		}
		h.secs = make([]dirEntry, ns)
		for i := range h.secs {
			id := src[*pos]
			if id >= numSectionIDs {
				return h, fmt.Errorf("core: unknown section id %d: %w", id, ErrCorrupt)
			}
			h.secs[i] = dirEntry{id: id, crc: binary.LittleEndian.Uint32(src[*pos+1:])}
			*pos += 5
		}
		// One CRC covers header fields and directory together, so a flip in
		// the directory itself (count, ids, per-section CRCs) is caught here
		// and never mis-frames the section parse.
		want := binary.LittleEndian.Uint32(src[*pos:])
		if got := crc32.Checksum(src[start:*pos], crcTable); got != want {
			return h, &SectionError{Section: "header", Err: ErrChecksum}
		}
		*pos += 4
		h.integrityBytes = *pos - dirStart
	}
	h.pipe.UseMask = h.flags&(flagMask|flagPointMask) != 0
	h.pipe.Classify = h.flags&flagClassify != 0
	switch {
	case h.flags&flagLorenzo != 0:
		h.pipe.Fitting = predict.Lorenzo
	case h.flags&flagCubic != 0:
		h.pipe.Fitting = predict.Cubic
	default:
		h.pipe.Fitting = predict.Linear
	}
	return h, nil
}

func float32sToBytes(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func bytesToFloat32s(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, ErrCorrupt
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}
