package rans

import (
	"encoding/binary"

	"cliz/internal/symhist"
)

// N-way interleaved rANS: W independent coder states, symbol i coded by
// state i mod W, so the decoder's per-symbol dependency chain spreads
// across W states and the renormalization reads pipeline instead of
// serializing on a single state. Unlike the classic rans_static shared
// stream, each way's renormalization bytes are kept in their own
// contiguous sub-stream (framed by per-way lengths): byte-interleaving
// the ways would multiplex W unrelated byte sequences and destroy the
// periodic patterns a downstream lossless pass exploits on highly
// redundant symbol streams, costing up to 4x on near-constant blocks.
// Separate sub-streams keep each way's bytes as LZ-friendly as a
// single-state stream and let the decoder advance W independent cursors
// with no cross-way dependency at all.

// DefaultWays is the interleave width used by EncodeInterleavedBlock
// callers that have no reason to pick another: wide enough to cover the
// decode loop's dependency latency, narrow enough that the per-way state
// and length framing stays negligible for small blocks.
const DefaultWays = 4

// maxWays bounds the declared interleave width of a block; wider brings no
// ILP benefit and a hostile width byte must not drive allocations.
const maxWays = 32

// EncodeInterleavedBlock compresses symbols into a self-contained block:
//
//	table | varint count | ways byte | per-way varint stream length |
//	per-way little-endian final state | concatenated per-way streams
//
// Each way's stream is byte-reversed so decoding is a forward scan. It
// returns ok=false when the alphabet exceeds MaxAlphabet (callers fall
// back to Huffman). ways is clamped to [1, maxWays].
func EncodeInterleavedBlock[S symhist.Symbol](symbols []S, ways int) ([]byte, bool) {
	if ways < 1 {
		ways = 1
	}
	if ways > maxWays {
		ways = maxWays
	}
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
	out = append(out, byte(ways))
	// Encode in reverse symbol order so the decoder runs forward; state
	// i%ways codes symbol i on both sides.
	states := make([]uint32, ways)
	for w := range states {
		states[w] = ransL
	}
	streams := make([][]byte, ways)
	w := (len(symbols) - 1) % ways
	for i := len(symbols) - 1; i >= 0; i-- {
		x := states[w]
		var idx uint64
		if j := uint32(symbols[i]) - lo; uint(j) < uint(len(tab)) {
			idx = tab[j] - 1
		} else {
			idx = h.Get(uint32(symbols[i])) - 1
		}
		f := t.freq[idx]
		xmax := ((ransL >> scaleBits) << 8) * f
		for x >= xmax {
			streams[w] = append(streams[w], byte(x))
			x >>= 8
		}
		states[w] = ((x/f)<<scaleBits + x%f) + t.cum[idx]
		if w == 0 {
			w = ways
		}
		w--
	}
	for _, s := range streams {
		// Reverse so decoding is a forward scan, mirroring EncodeBlock.
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	for _, s := range streams {
		out = appendUvarint(out, uint64(len(s)))
	}
	var st [4]byte
	for w := 0; w < ways; w++ {
		binary.LittleEndian.PutUint32(st[:], states[w])
		out = append(out, st[:]...)
	}
	for _, s := range streams {
		out = append(out, s...)
	}
	return out, true
}

// DecodeInterleavedBlock reverses EncodeInterleavedBlock with the default
// symbol-count cap (see DecodeBlock).
func DecodeInterleavedBlock(src []byte) ([]uint32, int, error) {
	return DecodeInterleavedBlockMax(src, MaxBlockSyms)
}

// DecodeInterleavedBlockMax is DecodeInterleavedBlock with a caller-supplied
// upper bound on the declared symbol count (see DecodeBlockMax). Every final
// state must land back on the renormalization floor and every per-way
// stream must be fully consumed, or the block is rejected as corrupt.
func DecodeInterleavedBlockMax(src []byte, maxSyms int) ([]uint32, int, error) {
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
	if pos >= len(src) {
		return nil, 0, ErrCorrupt
	}
	ways := int(src[pos])
	pos++
	if ways < 1 || ways > maxWays {
		return nil, 0, ErrCorrupt
	}
	// Per-way stream lengths; each length is bounded by the remaining
	// payload before any slicing, so a hostile directory cannot reach past
	// the block or drive an allocation.
	var slens [maxWays]uint64
	var total uint64
	for w := 0; w < ways; w++ {
		l, err := readUvarint(src, &pos)
		if err != nil || l > uint64(len(src)) {
			return nil, 0, ErrCorrupt
		}
		slens[w] = l
		total += l
	}
	if total+uint64(4*ways) > uint64(len(src)-pos) {
		return nil, 0, ErrCorrupt
	}
	if maxSyms < 0 || count > uint64(maxSyms) {
		return nil, 0, ErrCorrupt
	}
	states := make([]uint32, ways)
	for w := 0; w < ways; w++ {
		states[w] = binary.LittleEndian.Uint32(src[pos+4*w:])
	}
	pos += 4 * ways
	streams := make([][]byte, ways)
	cursors := make([]int, ways)
	for w := 0; w < ways; w++ {
		streams[w] = src[pos : pos+int(slens[w])]
		pos += int(slens[w])
	}
	out := make([]uint32, count)
	// Hot loop: table slices hoisted, way index carried as a wrapping
	// counter instead of i%ways; each way renormalizes from its own
	// sub-stream through its own cursor.
	slotTab, freqTab, cumTab, symTab := t.slot, t.freq, t.cum, t.syms
	w := 0
	for i := range out {
		x := states[w]
		slot := x & (scaleTotal - 1)
		idx := int(slotTab[slot])
		f := freqTab[idx]
		x = f*(x>>scaleBits) + slot - cumTab[idx]
		if x < ransL {
			s, sp := streams[w], cursors[w]
			for x < ransL {
				if sp >= len(s) {
					return nil, 0, ErrCorrupt
				}
				x = x<<8 | uint32(s[sp])
				sp++
			}
			cursors[w] = sp
		}
		states[w] = x
		out[i] = symTab[idx]
		w++
		if w == ways {
			w = 0
		}
	}
	for w, x := range states {
		if x != ransL || cursors[w] != len(streams[w]) {
			return nil, 0, ErrCorrupt
		}
	}
	return out, pos, nil
}
