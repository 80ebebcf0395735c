// Package lossless provides the final lossless stage of the compression
// pipelines. The paper's CliZ uses Huffman+Zstd; as a stdlib-only substitute
// this package offers a from-scratch LZSS coder and a DEFLATE backend
// (compress/flate), selectable per pipeline, plus a raw pass-through.
// Streams are self-describing: the first byte identifies the backend.
// Encode with a nil codec chooses raw or flate per stream from the
// payload's byte entropy.
package lossless

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Backend identifiers (first byte of every stream).
const (
	IDRaw   byte = 0
	IDFlate byte = 1
	IDLZSS  byte = 2
)

// ErrCorrupt is returned for malformed streams.
var ErrCorrupt = errors.New("lossless: corrupt stream")

// Codec compresses and decompresses byte blobs. Decompress may return a
// subslice of its input (Raw does), so callers treat the result as
// read-only.
type Codec interface {
	Name() string
	ID() byte
	Compress(src []byte) []byte
	Decompress(src []byte) ([]byte, error)
}

// ByID returns the codec for a backend identifier.
func ByID(id byte) (Codec, error) {
	switch id {
	case IDRaw:
		return Raw{}, nil
	case IDFlate:
		return Flate{Level: 6}, nil
	case IDLZSS:
		return LZSS{}, nil
	}
	return nil, fmt.Errorf("lossless: unknown backend id %d: %w", id, ErrCorrupt)
}

// rawEntropy is the order-0 byte entropy, in bits per byte, at or above
// which Encode(nil, src) stores src raw. At 7.9 bits/B Flate's Huffman
// stage can save at most (8-7.9)/8 ≈ 1.3%, and entropy-coded payloads that
// dense leave its LZ77 stage nothing to match, so the pass costs time and
// buys nothing. Inputs shorter than 2^7.9 ≈ 239 bytes never reach it: the
// plug-in entropy of n bytes is at most log2 n.
const rawEntropy = 7.9

// Encode compresses src with c and prepends the backend id. A nil c chooses
// per call from src's byte histogram: Raw when its order-0 entropy is at
// least rawEntropy, Flate level 6 otherwise.
func Encode(c Codec, src []byte) []byte {
	if c == nil {
		c = Flate{Level: 6}
		if byteEntropy(src) >= rawEntropy {
			c = Raw{}
		}
	}
	switch c := c.(type) {
	case Raw:
		out := make([]byte, 0, 1+len(src))
		out = append(out, IDRaw)
		return append(out, src...)
	case Flate:
		return c.frame(src, true)
	}
	body := c.Compress(src)
	out := make([]byte, 0, len(body)+1)
	out = append(out, c.ID())
	return append(out, body...)
}

// byteEntropy returns the order-0 (plug-in) entropy of src in bits per
// byte, 0 when src is empty.
func byteEntropy(src []byte) float64 {
	if len(src) == 0 {
		return 0
	}
	// Four interleaved counter sets: with one, a long run of a single byte
	// value would serialise every increment on one slot's load-store chain.
	var cnt [4][256]uint64
	i := 0
	for ; i+4 <= len(src); i += 4 {
		cnt[0][src[i]]++
		cnt[1][src[i+1]]++
		cnt[2][src[i+2]]++
		cnt[3][src[i+3]]++
	}
	for ; i < len(src); i++ {
		cnt[0][src[i]]++
	}
	var sum float64
	for b := range cnt[0] {
		if k := cnt[0][b] + cnt[1][b] + cnt[2][b] + cnt[3][b]; k > 0 {
			f := float64(k)
			sum += f * math.Log2(f)
		}
	}
	n := float64(len(src))
	return math.Log2(n) - sum/n
}

// Decode inspects the id byte and decompresses accordingly. A raw stream
// decodes to a subslice of src (see Raw.Decompress).
func Decode(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, ErrCorrupt
	}
	c, err := ByID(src[0])
	if err != nil {
		return nil, err
	}
	return c.Decompress(src[1:])
}

// Raw is the identity backend.
type Raw struct{}

func (Raw) Name() string { return "raw" }
func (Raw) ID() byte     { return IDRaw }
func (Raw) Compress(src []byte) []byte {
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// Decompress returns src itself, not a copy: the result shares src's
// memory. Every caller of Decode only reads the result and copies what it
// keeps into fresh buffers: core's bins, literals and point mask, the
// stream reader's delta sections, mask.Parse, classify.UnpackMeta, and the
// qoz and sperr decoders. So no decoded output aliases a caller's blob.
func (Raw) Decompress(src []byte) ([]byte, error) {
	return src, nil
}

// Flate wraps compress/flate; it plays the role of the Zstd stage in the
// paper's pipeline.
type Flate struct {
	Level int
}

func (Flate) Name() string { return "flate" }
func (Flate) ID() byte     { return IDFlate }

func (f Flate) Compress(src []byte) []byte {
	return f.frame(src, false)
}

// level maps f.Level onto the compress/flate level it has always selected:
// 0 and out-of-range values fall back to DefaultCompression, which
// compress/flate runs as level 6.
func (f Flate) level() int {
	if f.Level == 0 || f.Level == flate.DefaultCompression ||
		f.Level < flate.HuffmanOnly || f.Level > flate.BestCompression {
		return 6
	}
	return f.Level
}

// flateEncoder is the reusable state of one Flate encode: the
// flate.Writer, about 800 KB of match-finder tables, and the buffer it
// writes into.
type flateEncoder struct {
	w   *flate.Writer
	buf bytes.Buffer
}

// flateEncoders holds one pool per compress/flate level, indexed by
// level-flate.HuffmanOnly.
var flateEncoders [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// frame returns the optional id byte, the 8-byte little-endian length of
// src and src's deflate stream, in one exactly sized slice. A pooled
// flate.Writer is Reset rather than rebuilt; Reset output is byte-identical
// to a new writer's.
func (f Flate) frame(src []byte, withID bool) []byte {
	lvl := f.level()
	pool := &flateEncoders[lvl-flate.HuffmanOnly]
	e, _ := pool.Get().(*flateEncoder)
	if e == nil {
		e = new(flateEncoder)
		// lvl is a valid level, so NewWriter cannot fail.
		e.w, _ = flate.NewWriter(&e.buf, lvl)
	} else {
		e.w.Reset(&e.buf)
	}
	e.buf.Reset()
	if withID {
		e.buf.WriteByte(IDFlate)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(src)))
	e.buf.Write(hdr[:])
	// Writes into a bytes.Buffer cannot fail.
	_, _ = e.w.Write(src)
	_ = e.w.Close()
	out := bytes.Clone(e.buf.Bytes())
	pool.Put(e)
	return out
}

// flateDecoder is the reusable state of one Flate decode; r is a
// compress/flate reader and implements flate.Resetter.
type flateDecoder struct {
	src bytes.Reader
	r   io.ReadCloser
}

var flateDecoders sync.Pool

// newFlateDecoder returns a pooled decoder reading the deflate stream src.
func newFlateDecoder(src []byte) *flateDecoder {
	d, _ := flateDecoders.Get().(*flateDecoder)
	if d == nil {
		d = new(flateDecoder)
		d.src.Reset(src)
		d.r = flate.NewReader(&d.src)
		return d
	}
	d.src.Reset(src)
	// compress/flate's Reset always returns nil.
	_ = d.r.(flate.Resetter).Reset(&d.src, nil)
	return d
}

// release returns d to the pool without pinning the caller's blob.
func (d *flateDecoder) release() {
	d.src.Reset(nil)
	flateDecoders.Put(d)
}

func (Flate) Decompress(src []byte) ([]byte, error) {
	if len(src) < 8 {
		return nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint64(src[:8])
	const maxSize = 1 << 34 // 16 GiB sanity cap
	if n > maxSize {
		return nil, ErrCorrupt
	}
	d := newFlateDecoder(src[8:])
	defer d.release()
	// Grow the output as data actually arrives instead of trusting the
	// declared size up front: a corrupt length prefix would otherwise zero
	// gigabytes before the stream errors out.
	cap0 := n
	if cap0 > 1<<20 {
		cap0 = 1 << 20
	}
	out := make([]byte, 0, cap0)
	// Read straight into out: a local chunk buffer passed to the reader's
	// Read escapes to the heap, 32 KB per call.
	for uint64(len(out)) < n {
		if len(out) == cap(out) {
			more := n - uint64(len(out))
			if more > uint64(len(out)) {
				more = uint64(len(out))
			}
			out = slices.Grow(out, int(more))
		}
		end := uint64(cap(out))
		if end > n {
			end = n
		}
		m, err := d.r.Read(out[len(out):end])
		out = out[:len(out)+m]
		if uint64(len(out)) == n {
			break
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("lossless: flate: %w", err)
		}
	}
	return out, nil
}

// LZSS is a from-scratch greedy LZ77 coder with a hash-chain matcher.
// Token format: a flag byte describes the next 8 tokens (bit=1 means match),
// literals are single bytes, matches are 3 bytes:
// 16-bit little-endian distance (1..65535) and a length byte (len-minMatch,
// so lengths minMatch..minMatch+255).
type LZSS struct{}

const (
	lzMinMatch = 4
	lzMaxMatch = lzMinMatch + 255
	lzWindow   = 1 << 16
	lzHashBits = 15
	lzHashLen  = 4
	lzMaxChain = 32
)

func (LZSS) Name() string { return "lzss" }
func (LZSS) ID() byte     { return IDLZSS }

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

func (LZSS) Compress(src []byte) []byte {
	var out []byte
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(src)))
	out = append(out, hdr[:]...)
	n := len(src)
	if n == 0 {
		return out
	}
	head := make([]int32, 1<<lzHashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, n)
	var (
		flagPos = -1
		flagBit = 8
	)
	emitFlag := func(bit byte) {
		if flagBit == 8 {
			out = append(out, 0)
			flagPos = len(out) - 1
			flagBit = 0
		}
		out[flagPos] |= bit << flagBit
		flagBit++
	}
	insert := func(i int) {
		if i+lzHashLen > n {
			return
		}
		h := lzHash(load32(src, i))
		prev[i] = head[h]
		head[h] = int32(i)
	}
	i := 0
	for i < n {
		bestLen, bestDist := 0, 0
		if i+lzMinMatch <= n {
			h := lzHash(load32(src, i))
			cand := head[h]
			limit := i - lzWindow + 1
			maxL := n - i
			if maxL > lzMaxMatch {
				maxL = lzMaxMatch
			}
			for chain := 0; cand >= 0 && int(cand) >= limit && chain < lzMaxChain; chain++ {
				c := int(cand)
				if src[c+bestLen] == src[i+bestLen] || bestLen == 0 {
					l := 0
					for l < maxL && src[c+l] == src[i+l] {
						l++
					}
					if l > bestLen {
						bestLen, bestDist = l, i-c
						if l == maxL {
							break
						}
					}
				}
				cand = prev[c]
			}
		}
		if bestLen >= lzMinMatch {
			emitFlag(1)
			out = append(out, byte(bestDist), byte(bestDist>>8), byte(bestLen-lzMinMatch))
			end := i + bestLen
			for ; i < end; i++ {
				insert(i)
			}
		} else {
			emitFlag(0)
			out = append(out, src[i])
			insert(i)
			i++
		}
	}
	return out
}

func (LZSS) Decompress(src []byte) ([]byte, error) {
	if len(src) < 8 {
		return nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint64(src[:8]))
	const maxSize = 1 << 34
	if n < 0 || uint64(n) > maxSize {
		return nil, ErrCorrupt
	}
	// As in Flate.Decompress, grow the output as tokens arrive rather than
	// trusting a declared size that may be corrupt.
	out := make([]byte, 0, min(n, 1<<20))
	p := 8
	for len(out) < n {
		if p >= len(src) {
			return nil, ErrCorrupt
		}
		flags := src[p]
		p++
		for bit := 0; bit < 8 && len(out) < n; bit++ {
			if flags&(1<<bit) != 0 {
				if p+3 > len(src) {
					return nil, ErrCorrupt
				}
				dist := int(src[p]) | int(src[p+1])<<8
				l := int(src[p+2]) + lzMinMatch
				p += 3
				if dist == 0 || dist > len(out) {
					return nil, ErrCorrupt
				}
				for k := 0; k < l; k++ {
					out = append(out, out[len(out)-dist])
				}
			} else {
				if p >= len(src) {
					return nil, ErrCorrupt
				}
				out = append(out, src[p])
				p++
			}
		}
	}
	if len(out) != n {
		return nil, ErrCorrupt
	}
	return out, nil
}
