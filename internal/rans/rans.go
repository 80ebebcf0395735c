// Package rans implements a static range asymmetric numeral system (rANS)
// entropy coder over uint32 symbol alphabets — a modern alternative to the
// Huffman stage of the SZ3/CliZ pipeline (the same family as the FSE coder
// inside Zstd). Frequencies are scaled to a 12-bit total; decoding uses a
// 4096-entry slot table.
package rans

import (
	"encoding/binary"
	"errors"
	"sort"

	"cliz/internal/symhist"
)

const (
	scaleBits  = 12
	scaleTotal = 1 << scaleBits
	ransL      = 1 << 16 // lower renormalization bound
)

// ErrCorrupt reports a malformed rANS block.
var ErrCorrupt = errors.New("rans: corrupt block")

// MaxAlphabet is the largest supported distinct-symbol count (every symbol
// needs at least one slot of the 12-bit total).
const MaxAlphabet = scaleTotal

// freqTable holds scaled frequencies and cumulative starts.
type freqTable struct {
	syms []uint32 // sorted distinct symbols
	freq []uint32 // scaled frequency per symbol (≥ 1, sums to scaleTotal)
	cum  []uint32 // cumulative start per symbol
	// slot[s] is the symbol index owning slot s.
	slot []uint16
}

// countTable counts symbols and scales their table. The returned histogram
// maps each symbol to its table index + 1 for the encode loop; release it
// when done. ok is false for an empty or oversized alphabet.
func countTable[S symhist.Symbol](symbols []S) (t *freqTable, h *symhist.Hist, ok bool) {
	h = symhist.Count(symbols)
	t, ok = buildTable(h.Syms, h.Freqs)
	if !ok {
		h.Release()
		return nil, nil, false
	}
	for i := range t.syms {
		h.Set(i, uint64(i)+1)
	}
	return t, h, true
}

// buildTable scales raw counts (syms ascending, counts[i] for syms[i]) to
// exactly scaleTotal using the largest-remainder method with a floor of 1
// slot per symbol.
func buildTable(syms []uint32, counts []uint64) (*freqTable, bool) {
	n := len(syms)
	if n == 0 || n > MaxAlphabet {
		return nil, false
	}
	t := &freqTable{syms: syms}
	var total uint64
	for _, c := range counts {
		total += c
	}
	t.freq = make([]uint32, n)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	assigned := uint32(0)
	for i := range t.syms {
		exact := float64(counts[i]) / float64(total) * float64(scaleTotal)
		f := uint32(exact)
		if f < 1 {
			f = 1
		}
		t.freq[i] = f
		assigned += f
		rems[i] = rem{i, exact - float64(f)}
	}
	// Adjust to hit scaleTotal exactly: give leftovers to the largest
	// remainders, or strip from the largest frequencies.
	if assigned < scaleTotal {
		sort.Slice(rems, func(a, b int) bool {
			if rems[a].frac != rems[b].frac {
				return rems[a].frac > rems[b].frac
			}
			return rems[a].idx < rems[b].idx // determinism on ties
		})
		left := scaleTotal - assigned
		for i := 0; left > 0; i = (i + 1) % n {
			t.freq[rems[i].idx]++
			left--
		}
	} else if assigned > scaleTotal {
		over := assigned - scaleTotal
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			if t.freq[order[a]] != t.freq[order[b]] {
				return t.freq[order[a]] > t.freq[order[b]]
			}
			return order[a] < order[b] // determinism on ties
		})
		for i := 0; over > 0; i = (i + 1) % n {
			if t.freq[order[i]] > 1 {
				t.freq[order[i]]--
				over--
			}
		}
	}
	t.cum = make([]uint32, n+1)
	for i := 0; i < n; i++ {
		t.cum[i+1] = t.cum[i] + t.freq[i]
	}
	t.slot = make([]uint16, scaleTotal)
	for i := 0; i < n; i++ {
		for s := t.cum[i]; s < t.cum[i+1]; s++ {
			t.slot[s] = uint16(i)
		}
	}
	return t, true
}

// serialize writes sorted symbols (delta varints) and frequencies.
func (t *freqTable) serialize(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(len(t.syms)))
	prev := uint32(0)
	for i, s := range t.syms {
		d := uint64(s)
		if i > 0 {
			d = uint64(s - prev)
		}
		prev = s
		dst = appendUvarint(dst, d)
		dst = appendUvarint(dst, uint64(t.freq[i]))
	}
	return dst
}

// TableBytes reports how many leading bytes of an encoded block hold the
// frequency table (observability helper; ok=false on malformed input).
func TableBytes(src []byte) (int, bool) {
	pos := 0
	if _, err := parseTable(src, &pos); err != nil {
		return 0, false
	}
	return pos, true
}

func parseTable(src []byte, pos *int) (*freqTable, error) {
	n, err := readUvarint(src, pos)
	if err != nil || n == 0 || n > MaxAlphabet {
		return nil, ErrCorrupt
	}
	t := &freqTable{
		syms: make([]uint32, n),
		freq: make([]uint32, n),
	}
	var cur uint32
	var total uint32
	for i := uint64(0); i < n; i++ {
		d, err := readUvarint(src, pos)
		if err != nil {
			return nil, err
		}
		f, err := readUvarint(src, pos)
		if err != nil || f == 0 || f > scaleTotal {
			return nil, ErrCorrupt
		}
		if i == 0 {
			cur = uint32(d)
		} else {
			cur += uint32(d)
		}
		t.syms[i] = cur
		t.freq[i] = uint32(f)
		total += uint32(f)
	}
	if total != scaleTotal {
		return nil, ErrCorrupt
	}
	t.cum = make([]uint32, n+1)
	for i := 0; i < int(n); i++ {
		t.cum[i+1] = t.cum[i] + t.freq[i]
	}
	t.slot = make([]uint16, scaleTotal)
	for i := 0; i < int(n); i++ {
		for s := t.cum[i]; s < t.cum[i+1]; s++ {
			t.slot[s] = uint16(i)
		}
	}
	return t, nil
}

// EncodeBlock compresses symbols into a self-contained block:
// table | varint count | varint stream length | rANS stream.
// It returns ok=false when the alphabet exceeds MaxAlphabet (callers fall
// back to Huffman).
func EncodeBlock[S symhist.Symbol](symbols []S) ([]byte, bool) {
	if len(symbols) == 0 {
		out := appendUvarint(nil, 0) // empty table sentinel handled on decode
		out = appendUvarint(out, 0)
		return out, true
	}
	t, h, ok := countTable(symbols)
	if !ok {
		return nil, false
	}
	defer h.Release()
	lo, tab := h.Dense()
	out := t.serialize(nil)
	out = appendUvarint(out, uint64(len(symbols)))
	// rANS encodes in reverse so the decoder runs forward.
	var stream []byte
	x := uint32(ransL)
	for i := len(symbols) - 1; i >= 0; i-- {
		var idx uint64
		if j := uint32(symbols[i]) - lo; uint(j) < uint(len(tab)) {
			idx = tab[j] - 1
		} else {
			idx = h.Get(uint32(symbols[i])) - 1
		}
		f := t.freq[idx]
		// Renormalize: keep x < (L>>scaleBits)<<8 * f after encoding.
		xmax := ((ransL >> scaleBits) << 8) * f
		for x >= xmax {
			stream = append(stream, byte(x))
			x >>= 8
		}
		x = ((x / f) << scaleBits) + (x % f) + t.cum[idx]
	}
	var final [4]byte
	binary.LittleEndian.PutUint32(final[:], x)
	// The decoder reads the final state first, then the stream backwards —
	// reverse it here so decoding is a forward scan.
	for i, j := 0, len(stream)-1; i < j; i, j = i+1, j-1 {
		stream[i], stream[j] = stream[j], stream[i]
	}
	out = appendUvarint(out, uint64(len(stream)+4))
	out = append(out, final[:]...)
	out = append(out, stream...)
	return out, true
}

// MaxBlockSyms is the default cap on the declared symbol count of a
// block when the caller supplies no tighter budget. A rANS stream with a
// single-symbol alphabet legitimately decodes arbitrarily many symbols
// from a 4-byte stream (the state never changes), so the count cannot be
// bounded by payload length; it must be bounded by how many symbols the
// caller can possibly want.
const MaxBlockSyms = 1 << 31

// DecodeBlock reverses EncodeBlock, returning the symbols and the number of
// bytes consumed. The declared symbol count is capped at MaxBlockSyms;
// decoders that know their output volume should call DecodeBlockMax with
// the tighter budget.
func DecodeBlock(src []byte) ([]uint32, int, error) {
	return DecodeBlockMax(src, MaxBlockSyms)
}

// DecodeBlockMax is DecodeBlock with a caller-supplied upper bound on the
// declared symbol count. A block declaring more than maxSyms symbols is
// rejected as corrupt before any allocation, so a hostile few-byte blob
// cannot force a huge allocation.
func DecodeBlockMax(src []byte, maxSyms int) ([]uint32, int, error) {
	pos := 0
	nSyms, err := readUvarint(src, &pos)
	if err != nil {
		return nil, 0, ErrCorrupt
	}
	if nSyms == 0 {
		// Empty block: just the count sentinel.
		cnt, err := readUvarint(src, &pos)
		if err != nil || cnt != 0 {
			return nil, 0, ErrCorrupt
		}
		return nil, pos, nil
	}
	// Rewind: the first varint was the table size.
	pos = 0
	t, err := parseTable(src, &pos)
	if err != nil {
		return nil, 0, err
	}
	count, err := readUvarint(src, &pos)
	if err != nil {
		return nil, 0, ErrCorrupt
	}
	slen, err := readUvarint(src, &pos)
	if err != nil || slen < 4 || slen > uint64(len(src)-pos) {
		return nil, 0, ErrCorrupt
	}
	stream := src[pos : pos+int(slen)]
	pos += int(slen)
	x := binary.LittleEndian.Uint32(stream[:4])
	sp := 4
	if maxSyms < 0 || count > uint64(maxSyms) {
		return nil, 0, ErrCorrupt
	}
	out := make([]uint32, count)
	for i := range out {
		slot := x & (scaleTotal - 1)
		idx := int(t.slot[slot])
		f := t.freq[idx]
		x = f*(x>>scaleBits) + slot - t.cum[idx]
		for x < ransL {
			if sp >= len(stream) {
				return nil, 0, ErrCorrupt
			}
			x = x<<8 | uint32(stream[sp])
			sp++
		}
		out[i] = t.syms[idx]
	}
	if x != ransL || sp != len(stream) {
		return nil, 0, ErrCorrupt
	}
	return out, pos, nil
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
