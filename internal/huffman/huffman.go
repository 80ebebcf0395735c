// Package huffman implements a canonical, length-limited Huffman coder over
// dense uint32 symbol alphabets, with a compact serializable table format.
// It is the entropy stage of every prediction-based codec in this repository
// and supports the multi-tree encoding used by CliZ's quantization-bin
// classification (paper §VI-E): each classified group simply gets its own
// Codec instance and bitstream.
//
// A symbol stream may also be a slice of int32 quantization bins, coded
// and decoded where it lies as the bins' uint32 bit patterns.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"cliz/internal/bitio"
	"cliz/internal/symhist"
)

// MaxCodeLen is the longest admissible code. 58 keeps any code plus slack
// within a single 64-bit read.
const MaxCodeLen = 58

// ErrCorrupt is returned when a serialized table or bitstream is malformed.
var ErrCorrupt = errors.New("huffman: corrupt table or stream")

// Codec holds canonical codes for one alphabet.
type Codec struct {
	// syms is the alphabet in ascending order; lens[i] is the code length
	// of syms[i].
	syms []uint32
	lens []uint8
	// enc maps each symbol to its packed code bits<<6 | length (0 for
	// symbols outside the alphabet).
	enc *symhist.Hist
	// canonical decode tables
	minLen     uint
	maxLen     uint
	firstCode  []uint64 // first canonical code value of each length
	firstIdx   []int    // index into symsByCode of the first code of each length
	counts     []int    // number of codes of each length
	symsByCode []uint32 // symbols sorted by (length, code)
	// runs is set by Build when a 1- or 2-bit zero code carries enough of
	// the block for the encoder to look for runs of it.
	runs bool
	// decode-only LUT over the next lutBits of the stream; built lazily on
	// first decode, shared safely by concurrent shard decoders.
	lutOnce sync.Once
	lut     *[1 << lutBits]lutEntry
}

// lutBits is the window width of the single-level decode table. Quantizer
// bin codes are short (the bulk of the mass sits within a few bits of the
// entropy), so an 11-bit window resolves almost every symbol in one lookup
// while the 2^11-entry table still fits comfortably in L1.
const lutBits = 11

// runMaxLen is the longest shortest code the decoder also reads as runs.
// A canonical code's first code of the shortest length is all zeros, so
// when that code is 1 or 2 bits long — the dominant bin at any but the
// tightest bound — one leading-zero count decodes a whole run of it.
const runMaxLen = 2

// lutEntry resolves one lutBits-wide bit window: it starts with k copies of
// the zero code (the all-zero first code of the shortest length) and then
// the code of sym, n bits in all. k is at most 7, so the k+1 symbols fit one
// block store of eight. n == 0 means the table does not resolve the window:
// its first code is longer than lutBits, or, when the shortest code is at
// most runMaxLen bits, it starts with a run the decoder counts instead.
type lutEntry struct {
	sym  uint32
	n, k uint8
}

// buildLUT fills the fast-path table by parsing each window greedily: the
// zero codes at its head, then the one code that completes within it. When
// no code completes after the zero codes, the last zero code stands in as
// sym.
func (c *Codec) buildLUT() {
	if len(c.symsByCode) == 0 {
		return
	}
	lut := new([1 << lutBits]lutEntry)
	lmin := c.minLen
	for w := range lut {
		x := uint64(w) << (64 - lutBits)
		z := min(uint(bits.LeadingZeros64(x)), lutBits)
		k := z / lmin
		if lmin <= runMaxLen && (z == lutBits || k >= 8) {
			continue // a run
		}
		p := k * lmin
		if sym, l := c.codeFrom(x<<p, 1, lutBits-p); l > 0 {
			lut[w] = lutEntry{sym: sym, n: uint8(p + l), k: uint8(k)}
		} else if k > 0 {
			lut[w] = lutEntry{sym: c.symsByCode[0], n: uint8(p), k: uint8(k - 1)}
		}
	}
	c.lut = lut
}

// codeFrom resolves the code of length lo..hi at the head of the
// left-aligned word x by the canonical walk. It returns the symbol and the
// code length, or length 0 when no such code is a prefix of x.
func (c *Codec) codeFrom(x uint64, lo, hi uint) (uint32, uint) {
	for l := lo; l <= min(c.maxLen, hi); l++ {
		if d := x>>(64-l) - c.firstCode[l]; d < uint64(c.counts[l]) {
			return c.symsByCode[c.firstIdx[l]+int(d)], l
		}
	}
	return 0, 0
}

// Build counts symbols and constructs their canonical length-limited
// codec. An empty input yields a codec that can encode nothing; a
// single-symbol alphabet gets a 1-bit code. The codec's encode table lives
// in pooled memory: call Release once done encoding.
func Build[S symhist.Symbol](symbols []S) *Codec {
	h := symhist.Count(symbols)
	c := fromLengths(h.Syms, buildLengths(h.Freqs), h)
	if len(h.Syms) > 0 && c.minLen <= runMaxLen {
		i, _ := slices.BinarySearch(h.Syms, c.symsByCode[0])
		c.runs = h.Freqs[i] >= uint64(len(symbols))*runSharePct/100
	}
	return c
}

// runSharePct is the share of a block, in percent, that the zero code must
// carry for EncodeSymbols to test for runs of it.
const runSharePct = 96

// buildLengths computes the code length of every symbol from its frequency
// (freqs in ascending symbol order, all nonzero), rebuilding with damped
// frequencies if the tree exceeds MaxCodeLen (a simple, rarely-triggered
// limiter). freqs is not modified.
func buildLengths(freqs []uint64) []uint8 {
	lens := make([]uint8, len(freqs))
	huffLengths(freqs, lens)
	if len(lens) == 0 || slices.Max(lens) <= MaxCodeLen {
		return lens
	}
	f := slices.Clone(freqs)
	for slices.Max(lens) > MaxCodeLen {
		// Damp the skew and retry.
		for i, c := range f {
			f[i] = c/2 + 1
		}
		huffLengths(f, lens)
	}
	return lens
}

// huffLengths writes into lens[i] the Huffman tree depth of the symbol with
// frequency freqs[i] (all nonzero), saturated at 255 (anything past
// MaxCodeLen is damped anyway).
//
// The tree is the one a priority queue ordered by (freq, depth, seq) builds,
// where depth is a node's height, seq its creation order and leaves take
// their seq in ascending symbol order. That order is total, so the tree and
// every length are fully determined. It is built in linear time after one
// sort by the two-queue method: leaves sorted by (freq, symbol index) form
// one queue, and merged nodes are appended to a second in creation order.
// Every merge outweighs both nodes it consumes, so the merged nodes come out
// in (freq, depth, seq) order already: two with equal freq were merged from
// four equal-freq nodes taken in order, so the later one is no shallower.
// Taking the smaller head of the two queues therefore pops exactly what the
// priority queue would, and on a frequency tie the leaf goes first, since
// its depth is 0 and a merged node's is at least 1.
func huffLengths(freqs []uint64, lens []uint8) {
	n := len(freqs)
	switch n {
	case 0:
		return
	case 1:
		lens[0] = 1
		return
	}
	// Sort the leaves by (freq, symbol index). Packing both into one key
	// lets the ordered sort run without a comparator; symhist's counts always
	// fit, and only a hand-built table of huge frequencies takes the slow path.
	shift := bits.Len(uint(n - 1))
	order := make([]uint64, n)
	if slices.Max(freqs) < 1<<(64-shift) {
		for i, f := range freqs {
			order[i] = f<<shift | uint64(i)
		}
		slices.Sort(order)
	} else {
		for i := range order {
			order[i] = uint64(i)
		}
		slices.SortFunc(order, func(a, b uint64) int {
			if c := cmp.Compare(freqs[a], freqs[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	idxMask := uint64(1)<<shift - 1
	// Nodes 0..n-1 are the leaves by symbol index, node n+k the k-th merge.
	// up[v] holds v's parent until the depth pass overwrites the merged
	// nodes' entries with their depth.
	up := make([]int, 2*n-1)
	merged := make([]uint64, n-1)
	leaf, next := 0, 0 // heads of the leaf and merged queues
	pop := func(k int) (int, uint64) {
		if leaf < n && (next == k || freqs[order[leaf]&idxMask] <= merged[next]) {
			v := int(order[leaf] & idxMask)
			leaf++
			return v, freqs[v]
		}
		next++
		return n + next - 1, merged[next-1]
	}
	for k := 0; k < n-1; k++ {
		a, fa := pop(k)
		b, fb := pop(k)
		merged[k] = fa + fb
		up[a], up[b] = n+k, n+k
	}
	// Merges are created after their children, so walking them root first
	// sees every parent's depth before its children need it.
	up[2*n-2] = 0
	for v := 2*n - 3; v >= n; v-- {
		up[v] = up[up[v]] + 1
	}
	for i := range lens {
		lens[i] = uint8(min(up[up[i]]+1, 255))
	}
}

// fromLengths assigns canonical codes given the code length of every symbol
// (syms ascending, lens in [1, MaxCodeLen]) and writes each packed code into
// enc; a nil enc gets a fresh lookup table over syms. Codes are ordered by
// (length, symbol), so walking syms in ascending order hands out each
// length's codes in canonical order without sorting.
func fromLengths(syms []uint32, lens []uint8, enc *symhist.Hist) *Codec {
	if enc == nil {
		enc = symhist.Sorted(syms)
	}
	c := &Codec{syms: syms, lens: lens, enc: enc}
	if len(syms) == 0 {
		return c
	}
	maxL := uint(slices.Max(lens))
	c.minLen = uint(slices.Min(lens))
	c.maxLen = maxL
	c.counts = make([]int, maxL+1)
	for _, l := range lens {
		c.counts[l]++
	}
	c.firstCode = make([]uint64, maxL+2)
	c.firstIdx = make([]int, maxL+2)
	codeVal := uint64(0)
	idx := 0
	for l := uint(1); l <= maxL; l++ {
		c.firstCode[l] = codeVal
		c.firstIdx[l] = idx
		codeVal += uint64(c.counts[l])
		idx += c.counts[l]
		codeVal <<= 1
	}
	c.symsByCode = make([]uint32, len(syms))
	nextCode := make([]uint64, maxL+1)
	nextIdx := make([]int, maxL+1)
	copy(nextCode, c.firstCode)
	copy(nextIdx, c.firstIdx)
	for i, s := range syms {
		l := lens[i]
		enc.Set(i, nextCode[l]<<6|uint64(l))
		c.symsByCode[nextIdx[l]] = s
		nextCode[l]++
		nextIdx[l]++
	}
	return c
}

// Release returns the codec's pooled encode table. The codec must not
// encode afterwards; decoding and table serialization still work.
func (c *Codec) Release() { c.enc.Release() }

// Encode appends the codes for symbols to w (EncodeSymbols over uint32).
func (c *Codec) Encode(symbols []uint32, w *bitio.Writer) error {
	return EncodeSymbols(c, symbols, w)
}

// EncodeSymbols appends the codes for symbols to w. Unknown symbols are an
// error; the codes of the symbols before one are written.
func EncodeSymbols[S symhist.Symbol](c *Codec, symbols []S, w *bitio.Writer) error {
	_, err := encodeSymbols(c, symbols, w)
	return err
}

// encodeSymbols is EncodeSymbols, also reporting how many symbols were
// coded one at a time rather than as part of a zero-code run.
//
// Codes gather in a 64-bit accumulator, the low n bits of acc (bits above
// those are stale and shift out unread). A code that crosses the word
// boundary is split: its head completes the word, which goes to the buffer
// whole in one big-endian store, and its tail starts the next. When Build
// saw the zero code (the all-zero first code of a 1- or 2-bit shortest
// length) carry most of the block, runs of it are found eight symbols at a
// time and shifted in as one stretch of zero bits; only the symbol that
// ends a run is looked up. Other blocks take the table for every symbol,
// so short runs cost no run test.
//
// The packing is written out at each site rather than in a helper: the
// body is instantiated in the packages that call it, and there the
// compiler does not inline this package's unexported functions, so a
// helper would cost a call per symbol.
func encodeSymbols[S symhist.Symbol](c *Codec, symbols []S, w *bitio.Writer) (slow int, err error) {
	buf, acc, n := w.Words()
	lo, tab := c.enc.Dense()
	runs := c.runs
	var z S
	if runs {
		z = S(c.symsByCode[0])
	}
	i := 0
	for i < len(symbols) {
		if runs {
			j := i
			for len(symbols)-j >= 8 {
				q := symbols[j : j+8 : j+8]
				if (q[0]^z)|(q[1]^z)|(q[2]^z)|(q[3]^z)|(q[4]^z)|(q[5]^z)|(q[6]^z)|(q[7]^z) != 0 {
					break
				}
				j += 8
			}
			if runs = len(symbols)-j >= 8; runs {
				for symbols[j] == z { // one of the next eight is not
					j++
				}
			}
			// lmin is 1 or 2, so a shift by lmin-1 multiplies by it.
			if b := uint(j-i) << (c.minLen - 1); n+b < 64 {
				acc, n = acc<<b, n+b
			} else {
				buf = binary.BigEndian.AppendUint64(buf, acc<<(64-n))
				for b -= 64 - n; b >= 64; b -= 64 {
					buf = binary.BigEndian.AppendUint64(buf, 0)
				}
				acc, n = 0, b
			}
			i = j
			if !runs {
				continue // fewer than eight symbols left: the table codes them
			}
		} else {
			// Symbols in the dense table, with no call in the loop.
			i0 := i
			for ; i < len(symbols); i++ {
				k := uint32(symbols[i]) - lo
				if uint(k) >= uint(len(tab)) || tab[k] == 0 {
					break
				}
				v := tab[k]
				if l := uint(v & 63); n+l < 64 {
					acc, n = acc<<l|v>>6, n+l
				} else {
					// n ≥ 64-MaxCodeLen, so the masks only tell the
					// compiler that both shifts are below 64.
					r := n + l - 64
					buf = binary.BigEndian.AppendUint64(buf, acc<<((64-n)&63)|v>>6>>(r&63))
					acc, n = v>>6, r
				}
			}
			slow += i - i0
			if i == len(symbols) {
				break
			}
		}
		// symbols[i] ends a zero run or lies outside the dense table.
		v, err := c.code(uint32(symbols[i]))
		if err != nil {
			w.SetWords(buf, acc, n)
			return slow, err
		}
		if l := uint(v & 63); n+l < 64 {
			acc, n = acc<<l|v>>6, n+l
		} else {
			r := n + l - 64
			buf = binary.BigEndian.AppendUint64(buf, acc<<((64-n)&63)|v>>6>>(r&63))
			acc, n = v>>6, r
		}
		slow++
		i++
	}
	w.SetWords(buf, acc, n)
	return slow, nil
}

// code returns the packed code of s, bits<<6 | length.
func (c *Codec) code(s uint32) (uint64, error) {
	if v := c.enc.Get(s); v != 0 {
		return v, nil
	}
	return 0, fmt.Errorf("huffman: symbol %d not in alphabet", s)
}

// DecodeOne reads one symbol from r.
func (c *Codec) DecodeOne(r *bitio.Reader) (uint32, error) {
	if len(c.symsByCode) == 0 {
		return 0, ErrCorrupt
	}
	var v uint64
	for l := uint(1); l <= c.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
		n := c.counts[l]
		if n == 0 {
			continue
		}
		first := c.firstCode[l]
		if v >= first && v < first+uint64(n) {
			return c.symsByCode[c.firstIdx[l]+int(v-first)], nil
		}
	}
	return 0, ErrCorrupt
}

// Decode reads n symbols from r.
func (c *Codec) Decode(n int, r *bitio.Reader) ([]uint32, error) {
	out := make([]uint32, n)
	if err := DecodeSymbols(c, out, r); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeSymbols fills dst with len(dst) symbols read from r. Beyond the LUT
// itself (built once per codec), it allocates nothing, so parallel shard
// decoders can decode straight into disjoint windows of one shared output
// slice, and quantization bins decode where they lie. Every symbol whose
// code lies within one 56-bit window of the stream is resolved from that
// window; only the end of the stream and codes longer than the window fall
// back to DecodeOne, which keeps its exact error behavior. On error, the
// symbols before the failing one are in dst, and the rest of dst may have
// been overwritten.
func DecodeSymbols[S symhist.Symbol](c *Codec, dst []S, r *bitio.Reader) error {
	_, err := decodeSymbols(c, dst, r)
	return err
}

// decodeSymbols is DecodeSymbols, also reporting how many symbols went
// through DecodeOne. On a well-formed stream whose codes fit the window
// that is none, so a count above zero marks a fast path that was missed.
//
// One 56-bit peek, left-aligned in x with zeros past its avail real bits,
// is read until it no longer holds a whole code: a table load resolves up
// to eight symbols of at most lutBits bits, a leading-zero count resolves a
// longer run of a 1- or 2-bit zero code, and a code longer than lutBits is
// found by walking its lengths over the same word. The bits read are then
// retired with one Consume. Symbols are written in blocks of eight, so
// past the last symbol decoded dst may hold copies of the zero code's.
func decodeSymbols[S symhist.Symbol](c *Codec, dst []S, r *bitio.Reader) (slow int, err error) {
	c.lutOnce.Do(c.buildLUT)
	lut := c.lut
	if lut == nil {
		// Empty alphabet: DecodeOne supplies the canonical error.
		if len(dst) > 0 {
			_, err = c.DecodeOne(r)
		}
		return min(len(dst), 1), err
	}
	const window = 56
	lmin := c.minLen
	run := lmin <= runMaxLen
	multi := 2*lmin <= lutBits // whether an entry can hold zero codes
	zero := S(c.symsByCode[0])
	zeros := [8]S{zero, zero, zero, zero, zero, zero, zero, zero}
	i := 0
	for i < len(dst) {
		v, avail := r.Peek(window)
		x := v << (64 - window)
		rem := avail // real bits left in x
	symbols:
		for i < len(dst) {
			e := lut[x>>(64-lutBits)]
			n := uint(e.n)
			switch {
			case n == 0:
				if run {
					// lmin is 1 or 2 here, so shifts by lmin-1 divide and
					// multiply by it.
					z := min(uint(bits.LeadingZeros64(x)), rem)
					if k := min(int(z>>(lmin-1)), len(dst)-i); k > 0 {
						if i+window <= len(dst) {
							for j := 0; j < k; j += 8 {
								*(*[8]S)(dst[i+j:]) = zeros
							}
						} else {
							for j := range dst[i : i+k] {
								dst[i+j] = zero
							}
						}
						i += k
						n = uint(k) << (lmin - 1)
						break
					}
				}
				var sym uint32
				if sym, n = c.codeFrom(x, lutBits+1, rem); n == 0 {
					break symbols
				}
				dst[i] = S(sym)
				i++
			case n > rem:
				// Near the end of the stream a hit may be an artifact of
				// the zero padding past avail.
				break symbols
			case multi && i+8 <= len(dst):
				*(*[8]S)(dst[i:]) = zeros
				dst[i+int(e.k)] = S(e.sym)
				i += int(e.k) + 1
			default:
				// One symbol: the entry's first zero code, or its code when
				// it has none.
				if e.k == 0 {
					dst[i] = S(e.sym)
				} else {
					dst[i] = zero
					n = lmin
				}
				i++
			}
			x <<= n
			rem -= n
		}
		if used := avail - rem; used > 0 {
			if err := r.Consume(used); err != nil {
				return slow, err
			}
			continue
		}
		// A fresh window resolved nothing: the stream ends within the next
		// code, the code is longer than the window, or the bits are no
		// code at all. The canonical walk tells these apart.
		s, err := c.DecodeOne(r)
		if err != nil {
			return slow, err
		}
		dst[i] = S(s)
		i++
		slow++
	}
	return slow, nil
}

// Alphabet returns the number of distinct symbols.
func (c *Codec) Alphabet() int { return len(c.syms) }

// CodeLen returns the code length for sym (0 if absent). Useful for cost
// estimation without encoding.
func (c *Codec) CodeLen(sym uint32) uint {
	return uint(c.enc.Get(sym) & 63)
}

// SerializeTable appends a compact description of the code table to dst:
// varint count, then per symbol (sorted) varint delta-encoded symbol value
// and a byte length.
func (c *Codec) SerializeTable(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(len(c.syms)))
	prev := uint32(0)
	for i, s := range c.syms {
		d := uint64(s)
		if i > 0 {
			d = uint64(s - prev) // strictly increasing
		}
		prev = s
		dst = appendUvarint(dst, d)
		dst = append(dst, c.lens[i])
	}
	return dst
}

// ParseTable reads a table serialized by SerializeTable and returns the
// codec plus the number of bytes consumed.
func ParseTable(src []byte) (*Codec, int, error) {
	n, sz := uvarint(src)
	if sz <= 0 {
		return nil, 0, ErrCorrupt
	}
	// Every table entry costs at least 2 bytes (delta varint + length
	// byte), so a declared count beyond len(src)/2 cannot be backed by
	// payload; reject it before sizing the tables.
	if n > uint64(len(src))/2 {
		return nil, 0, ErrCorrupt
	}
	pos := sz
	syms := make([]uint32, n)
	lens := make([]uint8, n)
	var cur uint32
	// Kraft sum of the lengths so far, in units of 2^-MaxCodeLen. An
	// over-subscribed table (sum above 1) is no prefix code: canonical
	// assignment runs codes past their length's range, which no encoder
	// writes and the decode table cannot index.
	var kraft uint64
	for i := uint64(0); i < n; i++ {
		d, sz := uvarint(src[pos:])
		if sz <= 0 || pos+sz >= len(src)+1 {
			return nil, 0, ErrCorrupt
		}
		pos += sz
		if pos >= len(src) {
			return nil, 0, ErrCorrupt
		}
		l := src[pos]
		pos++
		if l == 0 || l > MaxCodeLen {
			return nil, 0, ErrCorrupt
		}
		if kraft += 1 << (MaxCodeLen - l); kraft > 1<<MaxCodeLen {
			return nil, 0, ErrCorrupt
		}
		// Symbols are strictly increasing 32-bit values; anything else is
		// not a table SerializeTable wrote.
		switch {
		case i == 0 && d <= math.MaxUint32:
			cur = uint32(d)
		case i > 0 && d > 0 && d <= uint64(math.MaxUint32-cur):
			cur += uint32(d)
		default:
			return nil, 0, ErrCorrupt
		}
		syms[i] = cur
		lens[i] = l
	}
	return fromLengths(syms, lens, nil), pos, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func uvarint(src []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range src {
		if i > 9 {
			return 0, -1
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, -1
}

// EncodeBlock is a convenience helper: builds a codec from the symbols,
// serializes table + varint count + padded bitstream into one self-contained
// byte block.
func EncodeBlock(symbols []uint32) []byte {
	return AppendBlock(nil, symbols)
}

// AppendBlock is EncodeBlock appending to dst.
func AppendBlock[S symhist.Symbol](dst []byte, symbols []S) []byte {
	c := Build(symbols)
	defer c.Release()
	// The frequencies give the exact bitstream size, so the output grows
	// once and the bits land in place.
	nbits := uint64(0)
	for i, f := range c.enc.Freqs {
		nbits += f * uint64(c.lens[i])
	}
	nbytes := int((nbits + 7) / 8)
	dst = c.SerializeTable(dst)
	dst = appendUvarint(dst, uint64(len(symbols)))
	dst = appendUvarint(dst, uint64(nbytes))
	w := bitio.AppendWriter(slices.Grow(dst, nbytes))
	_ = EncodeSymbols(c, symbols, w) // cannot fail: codec built from these symbols
	return w.Bytes()
}

// DecodeBlock reverses EncodeBlock, returning the symbols and bytes consumed.
func DecodeBlock(src []byte) ([]uint32, int, error) {
	return DecodeBlockMax(src, -1)
}

// DecodeBlockMax is DecodeBlock with a caller-supplied upper bound on the
// declared symbol count (-1 for no extra bound beyond the payload-backed
// one-bit-per-symbol cap). Decoders that know their output volume should
// pass it so a hostile count is rejected before allocation.
func DecodeBlockMax(src []byte, maxSyms int) ([]uint32, int, error) {
	b, err := parseBlock(src)
	if err != nil {
		return nil, 0, err
	}
	if b.n == 0 {
		return nil, b.end, nil
	}
	if maxSyms >= 0 && b.n > uint64(maxSyms) {
		return nil, 0, ErrCorrupt
	}
	syms, err := b.c.Decode(int(b.n), bitio.NewReader(b.stream))
	if err != nil {
		return nil, 0, err
	}
	return syms, b.end, nil
}

// DecodeBlockInto is DecodeBlock into dst, whose length must equal the
// block's declared symbol count; a block declaring any other count is
// rejected before a symbol is written.
func DecodeBlockInto[S symhist.Symbol](src []byte, dst []S) error {
	b, err := parseBlock(src)
	if err != nil {
		return err
	}
	if b.n != uint64(len(dst)) {
		return ErrCorrupt
	}
	return DecodeSymbols(b.c, dst, bitio.NewReader(b.stream))
}

// block is a parsed EncodeBlock header: the codec, the declared symbol
// count, the bitstream, and the end of the block in its source.
type block struct {
	c      *Codec
	n      uint64
	stream []byte
	end    int
}

// parseBlock reads an EncodeBlock header and checks the declared count and
// bitstream length against the source.
func parseBlock(src []byte) (block, error) {
	c, pos, err := ParseTable(src)
	if err != nil {
		return block{}, err
	}
	n, sz := uvarint(src[pos:])
	if sz <= 0 {
		return block{}, ErrCorrupt
	}
	pos += sz
	blen, sz := uvarint(src[pos:])
	if sz <= 0 {
		return block{}, ErrCorrupt
	}
	pos += sz
	// Compare in uint64 before converting: a declared length near 2^63
	// would turn negative as an int.
	if blen > uint64(len(src)-pos) {
		return block{}, ErrCorrupt
	}
	// Every symbol costs at least one bit, so a count that exceeds the
	// bitstream's capacity is corrupt — reject before allocating n slots.
	if n > 8*blen {
		return block{}, ErrCorrupt
	}
	end := pos + int(blen)
	return block{c: c, n: n, stream: src[pos:end], end: end}, nil
}
