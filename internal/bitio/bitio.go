// Package bitio provides MSB-first bit-level writing and reading on top of
// byte slices. It is the substrate for the Huffman coders and the bit-plane
// coders in the ZFP- and SPERR-style codecs.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrOverrun is returned by Reader methods when the stream is exhausted.
var ErrOverrun = errors.New("bitio: read past end of stream")

// ErrBitCount is returned when a requested bit count is outside the
// representable range. Bit counts on decode paths can come from the
// bitstream itself, so this must be a classifiable error, not a panic.
var ErrBitCount = errors.New("bitio: bit count out of range")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, left-aligned within nbits
	nbit uint   // number of valid bits in cur (0..63)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// AppendWriter returns a Writer that appends its bits to buf, so a caller
// that reserved capacity for a known bit count gets them without a copy.
func AppendWriter(buf []byte) *Writer {
	return &Writer{buf: buf}
}

// WriteBit appends a single bit (any nonzero b means 1).
func (w *Writer) WriteBit(b uint) {
	if b != 0 {
		b = 1
	}
	w.cur = w.cur<<1 | uint64(b)
	w.nbit++
	if w.nbit == 64 {
		w.spill()
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	free := 64 - w.nbit
	if n <= free {
		w.cur = w.cur<<n | v
		w.nbit += n
		if w.nbit == 64 {
			w.spill()
		}
		return
	}
	// Split: top part fills cur, bottom part starts a fresh word.
	top := n - free
	w.cur = w.cur<<free | v>>top
	w.nbit = 64
	w.spill()
	if top < 64 {
		v &= (1 << top) - 1
	}
	w.cur = v
	w.nbit = top
}

// spill flushes the full 64-bit accumulator to the byte buffer.
func (w *Writer) spill() {
	w.buf = append(w.buf,
		byte(w.cur>>56), byte(w.cur>>48), byte(w.cur>>40), byte(w.cur>>32),
		byte(w.cur>>24), byte(w.cur>>16), byte(w.cur>>8), byte(w.cur))
	w.cur, w.nbit = 0, 0
}

// Words hands the writer's state to a caller that packs whole 64-bit words
// itself: the bytes written so far and the pending bits, which are the low
// nbit (< 64) bits of cur. The caller appends each full word to buf
// big-endian, as the writer would, and hands the state back with SetWords.
func (w *Writer) Words() (buf []byte, cur uint64, nbit uint) {
	return w.buf, w.cur, w.nbit
}

// SetWords replaces the writer's state with buf and the low nbit bits of
// cur, as Words returns them. nbit must be below 64.
func (w *Writer) SetWords(buf []byte, cur uint64, nbit uint) {
	if nbit >= 64 {
		panic(fmt.Sprintf("bitio: SetWords nbit=%d out of range", nbit))
	}
	w.buf, w.cur, w.nbit = buf, cur&(1<<nbit-1), nbit
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nbit) }

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
// The Writer may continue to be used afterwards, but the padding bits
// become part of the stream.
func (w *Writer) Bytes() []byte {
	for w.nbit >= 8 {
		shift := w.nbit - 8
		w.buf = append(w.buf, byte(w.cur>>shift))
		w.nbit -= 8
		if w.nbit == 0 {
			w.cur = 0
		} else {
			w.cur &= (1 << w.nbit) - 1
		}
	}
	if w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nbit)))
		w.cur, w.nbit = 0, 0
	}
	return w.buf
}

// Reset discards all written data, retaining the allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nbit = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int // next byte index
	cur  uint64
	nbit uint // valid bits remaining in cur
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// fill tops the accumulator up to at least 57 valid bits, or to the end of
// the input. While 8 bytes remain it loads them as one big-endian word and
// keeps as many whole bytes of it as the accumulator has room for; only the
// last 7 bytes of the input go one at a time.
func (r *Reader) fill() {
	if r.pos+8 <= len(r.buf) {
		k := (64 - r.nbit) / 8 // bytes that fit; shifts of 64 yield 0 in Go
		w := binary.BigEndian.Uint64(r.buf[r.pos:])
		r.cur = r.cur<<(8*k) | w>>(64-8*k)
		r.pos += int(k)
		r.nbit += 8 * k
		return
	}
	for r.nbit <= 56 && r.pos < len(r.buf) {
		r.cur = r.cur<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.nbit += 8
	}
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nbit == 0 {
		r.fill()
		if r.nbit == 0 {
			return 0, ErrOverrun
		}
	}
	r.nbit--
	bit := uint(r.cur>>r.nbit) & 1
	return bit, nil
}

// ReadBits reads n bits (n in [0,64]) MSB-first and returns them
// right-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("bitio: ReadBits n=%d: %w", n, ErrBitCount)
	}
	var v uint64
	for n > 0 {
		if r.nbit == 0 {
			r.fill()
			if r.nbit == 0 {
				return 0, ErrOverrun
			}
		}
		take := n
		if take > r.nbit {
			take = r.nbit
		}
		r.nbit -= take
		chunk := (r.cur >> r.nbit) & ((1 << take) - 1)
		if take == 64 {
			chunk = r.cur
		}
		v = v<<take | chunk
		n -= take
	}
	return v, nil
}

// Peek returns the next n bits (n in [1,56]) MSB-first and right-aligned
// without consuming them, together with the number of bits actually
// available. Near the end of the stream avail may be less than n; the
// missing low bits of the returned value are zero. The accumulator keeps
// stale already-consumed bits above the valid window, so the value is
// masked here — callers must never read r.cur directly. Requests above 56
// bits are out of contract: they never corrupt state or leak stale bits,
// but whether any bits are reported depends on the buffer state.
func (r *Reader) Peek(n uint) (uint64, uint) {
	// Fast path — enough bits buffered. Safe for any n that passes the
	// guard: n <= nbit <= 64, and Go shifts by >= 64 yield the correct
	// all-ones mask for n == 64.
	if r.nbit >= n {
		return (r.cur >> (r.nbit - n)) & (1<<n - 1), n
	}
	return r.peekSlow(n)
}

func (r *Reader) peekSlow(n uint) (v uint64, avail uint) {
	if n == 0 || n > 56 {
		return 0, 0
	}
	r.fill()
	if r.nbit >= n {
		return (r.cur >> (r.nbit - n)) & ((1 << n) - 1), n
	}
	avail = r.nbit
	if avail == 0 {
		return 0, 0
	}
	return (r.cur & ((1 << avail) - 1)) << (n - avail), avail
}

// Consume discards n bits previously observed via Peek. n must not exceed
// the avail that Peek reported; consuming more than is buffered is an
// overrun.
func (r *Reader) Consume(n uint) error {
	if n > r.nbit {
		return ErrOverrun
	}
	r.nbit -= n
	return nil
}

// BitsRemaining reports the number of unread bits (including padding bits).
func (r *Reader) BitsRemaining() int {
	return int(r.nbit) + (len(r.buf)-r.pos)*8
}
