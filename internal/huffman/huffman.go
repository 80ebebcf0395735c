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
	maxLen     uint
	firstCode  []uint64 // first canonical code value of each length
	firstIdx   []int    // index into symsByCode of the first code of each length
	counts     []int    // number of codes of each length
	symsByCode []uint32 // symbols sorted by (length, code)
	// decode-only LUT over the next lutBits of the stream; built lazily on
	// first DecodeInto, shared safely by concurrent shard decoders.
	lutOnce sync.Once
	lut     []lutEntry
}

// lutBits is the window width of the single-level decode table. Quantizer
// bin codes are short (the bulk of the mass sits within a few bits of the
// entropy), so an 11-bit window resolves almost every symbol in one lookup
// while the 2^11-entry table still fits comfortably in L1.
const lutBits = 11

// lutEntry resolves one lutBits-wide bit window to the symbol whose code is
// a prefix of it. n is the code length to consume; n == 0 means no code of
// length <= lutBits matches and the decoder must take the canonical
// bit-by-bit path.
type lutEntry struct {
	sym uint32
	n   uint8
}

// buildLUT fills the fast-path table: every code of length <= lutBits owns
// the 2^(lutBits-len) windows it prefixes. Codes are prefix-free, so the
// ranges never overlap; windows left zero fall through to DecodeOne.
func (c *Codec) buildLUT() {
	if len(c.symsByCode) == 0 {
		return
	}
	lut := make([]lutEntry, 1<<lutBits)
	maxL := c.maxLen
	if maxL > lutBits {
		maxL = lutBits
	}
	for l := uint(1); l <= maxL; l++ {
		for k := 0; k < c.counts[l]; k++ {
			codeVal := c.firstCode[l] + uint64(k)
			sym := c.symsByCode[c.firstIdx[l]+k]
			span := 1 << (lutBits - l)
			base := int(codeVal) * span
			for w := base; w < base+span; w++ {
				lut[w] = lutEntry{sym: sym, n: uint8(l)}
			}
		}
	}
	c.lut = lut
}

// Build counts symbols and constructs their canonical length-limited
// codec. An empty input yields a codec that can encode nothing; a
// single-symbol alphabet gets a 1-bit code. The codec's encode table lives
// in pooled memory: call Release once done encoding.
func Build[S symhist.Symbol](symbols []S) *Codec {
	h := symhist.Count(symbols)
	return fromLengths(h.Syms, buildLengths(h.Freqs), h)
}

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
// error. Codes are gathered in a local 64-bit accumulator and handed to w a
// word at a time.
func EncodeSymbols[S symhist.Symbol](c *Codec, symbols []S, w *bitio.Writer) error {
	lo, tab := c.enc.Dense()
	var acc uint64
	var n uint
	for _, sym := range symbols {
		s := uint32(sym)
		var v uint64
		if i := s - lo; uint(i) < uint(len(tab)) {
			v = tab[i]
		} else {
			v = c.enc.Get(s)
		}
		if v == 0 {
			w.WriteBits(acc, n)
			return fmt.Errorf("huffman: symbol %d not in alphabet", s)
		}
		l := uint(v & 63)
		if n+l > 64 {
			w.WriteBits(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<l | v>>6
		n += l
	}
	w.WriteBits(acc, n)
	return nil
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
// slice, and quantization bins decode where they lie. Symbols whose code
// fits the LUT window resolve in one peek; longer codes — and windows
// truncated by end of stream, where a LUT hit could be an artifact of zero
// padding — fall back to the canonical walk, which keeps the exact error
// behavior of DecodeOne.
func DecodeSymbols[S symhist.Symbol](c *Codec, dst []S, r *bitio.Reader) error {
	c.lutOnce.Do(c.buildLUT)
	lut := c.lut
	if lut == nil {
		// Empty alphabet: DecodeOne supplies the canonical error.
		for i := range dst {
			s, err := c.DecodeOne(r)
			if err != nil {
				return err
			}
			dst[i] = S(s)
		}
		return nil
	}
	// Batched window decode: peek up to 56 bits once, resolve as many
	// symbols as fit from the local word, consume their total in one call.
	// This amortizes the reader round-trip over several symbols — the LUT
	// hit itself is a shift, a mask, and one table load.
	const window = 56
	i := 0
	for i < len(dst) {
		v, avail := r.Peek(window)
		used := uint(0)
		for i < len(dst) && used+lutBits <= window {
			e := lut[(v>>(window-lutBits-used))&(1<<lutBits-1)]
			// avail < window near end of stream, where a hit may be an
			// artifact of zero padding — only lengths covered by real
			// bits count.
			if e.n == 0 || used+uint(e.n) > avail {
				break
			}
			dst[i] = S(e.sym)
			used += uint(e.n)
			i++
		}
		if used > 0 {
			if err := r.Consume(used); err != nil {
				return err
			}
			continue
		}
		// LUT miss (code longer than lutBits) or window too short: the
		// canonical walk keeps the exact error behavior of DecodeOne.
		s, err := c.DecodeOne(r)
		if err != nil {
			return err
		}
		dst[i] = S(s)
		i++
	}
	return nil
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
