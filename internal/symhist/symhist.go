// Package symhist counts the symbols of one entropy-coded block and then
// serves as the coder's per-symbol lookup table, without hashing. Blocks
// whose symbols span a narrow range [lo, hi] — every quantization-bin
// stream, whose bins sit near the quantizer radius with the literal escape
// 0 beside them — are counted in one dense array indexed by s-lo, the way
// SZ3 counts its bins. The array comes from a sync.Pool and, once the
// frequencies are read out, is overwritten in place with the coder's
// per-symbol value (a packed Huffman code, a rANS table index), so a block
// costs no span-sized allocation. Wider or sparser alphabets fall back to
// sorting a copy of the symbols and binary-searching the distinct ones.
//
// Counting is kept free of load-store chains. The bounds come from four
// independent min/max lanes, and a block that is long against its span
// counts into four interleaved tables in the same pooled array, merged
// afterwards. When most of a block falls on one slot, as a smooth field's
// bins do, consecutive increments then hit different words and do not
// wait on each other's stores.
package symhist

import (
	"slices"
	"sync"
)

// MaxSpan is the widest symbol range [lo, hi] counted densely. Quantizer
// bins lie in [0, 2·radius), so this covers every bin a radius up to 65536
// produces, DefaultRadius (32768) with its escape included.
const MaxSpan = 1 << 17

// minSymsPerSlot sets the density floor of the dense path: it costs O(span)
// to clear and scan the array, so a block only uses it when it has at least
// one symbol per this many slots. Below that, sorting the few symbols is
// cheaper.
const minSymsPerSlot = 64

// Hist holds the distinct symbols of one block in ascending order, their
// frequencies, and one uint64 slot per symbol that the coder fills with Set
// and reads per symbol with Get. A Hist is safe for concurrent Get calls
// once every Set has happened.
type Hist struct {
	// Syms are the distinct symbols, ascending.
	Syms []uint32
	// Freqs[i] counts Syms[i] (always ≥ 1).
	Freqs []uint64

	lo    uint32
	dense []uint64  // slot of s at dense[s-lo]; nil on the sparse path
	vals  []uint64  // sparse path: slot of Syms[i] at vals[i]
	buf   *[]uint64 // pooled backing array of dense
}

var pool = sync.Pool{New: func() any { return new([]uint64) }}

// Symbol is the element type of a symbol stream: the coders' uint32
// alphabets, or quantization bins coded where they lie as int32. An int32
// symbol counts as its uint32 bit pattern.
type Symbol interface{ ~int32 | ~uint32 }

// Count tallies symbols. The returned Hist's slots start at zero; call
// Release when done with it.
func Count[S Symbol](symbols []S) *Hist {
	h := &Hist{}
	if len(symbols) == 0 {
		return h
	}
	lo, hi := bounds(symbols)
	span := uint64(hi-lo) + 1
	if span > MaxSpan || span > minSymsPerSlot*uint64(len(symbols)) {
		countSparse(h, symbols)
		return h
	}
	h.lo = lo
	h.buf = pool.Get().(*[]uint64)
	if uint64(cap(*h.buf)) < span {
		*h.buf = make([]uint64, max(span, minBuf))
	}
	var d []uint64
	if inLanes(uint64(len(symbols)), span) {
		d = countLanes((*h.buf)[:lanes*span], symbols, lo)
	} else {
		d = (*h.buf)[:span]
		clear(d)
		for _, s := range symbols {
			d[uint32(s)-lo]++
		}
	}
	k := 0
	for _, c := range d {
		if c != 0 {
			k++
		}
	}
	h.Syms = make([]uint32, 0, k)
	h.Freqs = make([]uint64, 0, k)
	for i, c := range d {
		if c != 0 {
			h.Syms = append(h.Syms, lo+uint32(i))
			h.Freqs = append(h.Freqs, c)
			d[i] = 0
		}
	}
	h.dense = d
	return h
}

// bounds returns the least and greatest symbol of a non-empty block, in
// four independent lanes so that no compare waits on the one before.
func bounds[S Symbol](symbols []S) (lo, hi uint32) {
	l0 := uint32(symbols[0])
	l1, l2, l3 := l0, l0, l0
	h0, h1, h2, h3 := l0, l0, l0, l0
	q := symbols
	for len(q) >= 4 {
		s0 := uint32(q[0])
		l0, h0 = min(l0, s0), max(h0, s0)
		s1 := uint32(q[1])
		l1, h1 = min(l1, s1), max(h1, s1)
		s2 := uint32(q[2])
		l2, h2 = min(l2, s2), max(h2, s2)
		s3 := uint32(q[3])
		l3, h3 = min(l3, s3), max(h3, s3)
		q = q[4:]
	}
	for _, s := range q {
		l0, h0 = min(l0, uint32(s)), max(h0, uint32(s))
	}
	return min(l0, l1, l2, l3), max(h0, h1, h2, h3)
}

// lanes is the number of interleaved counter tables countLanes keeps.
const lanes = 4

// minBuf is the least length of a pooled counter array, so that every
// array holds the lanes of any span up to minBuf/lanes.
const minBuf = 1 << 12

// minSymsPerLaneSlot sets when a block is counted in lanes: clearing and
// merging the lanes costs O(lanes·span), so the block must be long against
// its span for the shorter dependency chains to pay.
const minSymsPerLaneSlot = 16

// inLanes reports whether a block of n symbols over span slots is counted
// in lanes: it must be long against its span, and its lanes must fit the
// least pooled array, so the choice rests on the block alone and lanes
// never grow the pool. Escape-widened spans (~32.8k) take one table.
func inLanes(n, span uint64) bool {
	return n >= minSymsPerLaneSlot*span && lanes*span <= minBuf
}

// countLanes counts symbols (all in [lo, lo+len(d)/lanes)) into d, which
// it clears first, and returns the merged counts at the front of d. Symbol
// i of every four goes to lane i, whose counter for s sits at
// d[lanes·(s-lo)+i]: when most of a block falls on one slot (99% of a
// smooth field's bins), consecutive increments then hit four different
// words instead of each waiting on the store before it.
func countLanes[S Symbol](d []uint64, symbols []S, lo uint32) []uint64 {
	clear(d)
	q := symbols
	for len(q) >= lanes {
		d[lanes*(uint32(q[0])-lo)]++
		d[lanes*(uint32(q[1])-lo)+1]++
		d[lanes*(uint32(q[2])-lo)+2]++
		d[lanes*(uint32(q[3])-lo)+3]++
		q = q[lanes:]
	}
	for _, s := range q {
		d[lanes*(uint32(s)-lo)]++
	}
	// Slot j reads lanes·j.. before anything past j is written.
	span := len(d) / lanes
	for j := range span {
		q := d[lanes*j : lanes*j+lanes : lanes*j+lanes]
		d[j] = q[0] + q[1] + q[2] + q[3]
	}
	return d[:span]
}

// countSparse is the fallback for wide or sparse alphabets: sort a copy and
// run-length the distinct symbols.
func countSparse[S Symbol](h *Hist, symbols []S) {
	sorted := make([]uint32, len(symbols))
	for i, s := range symbols {
		sorted[i] = uint32(s)
	}
	slices.Sort(sorted)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		h.Syms = append(h.Syms, sorted[i])
		h.Freqs = append(h.Freqs, uint64(j-i))
		i = j
	}
	h.vals = make([]uint64, len(h.Syms))
}

// Sorted returns a Hist over already-known distinct ascending symbols with
// no frequencies, for coders that only need the symbol→slot lookup (such as
// a code table parsed from a stream). It takes no pooled memory.
func Sorted(syms []uint32) *Hist {
	return &Hist{Syms: syms, vals: make([]uint64, len(syms))}
}

// Set stores v in the slot of Syms[i]. Get reports 0 for symbols outside
// the block, so coders store nonzero values.
func (h *Hist) Set(i int, v uint64) {
	if h.dense != nil {
		h.dense[h.Syms[i]-h.lo] = v
		return
	}
	h.vals[i] = v
}

// Get returns the slot of symbol s, or 0 when s is not one of Syms.
func (h *Hist) Get(s uint32) uint64 {
	if d, i := h.dense, s-h.lo; uint(i) < uint(len(d)) {
		return d[i]
	}
	return h.sparseGet(s)
}

// Dense returns the dense slot array and its base symbol: the slot of s is
// tab[s-lo] whenever s-lo is in range. tab is nil on the sparse path. Hot
// loops index tab directly and call Get only for symbols outside it.
func (h *Hist) Dense() (lo uint32, tab []uint64) { return h.lo, h.dense }

// sparseGet serves the sparse path, and symbols outside the dense range
// (which are absent: vals is nil there).
func (h *Hist) sparseGet(s uint32) uint64 {
	i, ok := slices.BinarySearch(h.Syms, s)
	if !ok || i >= len(h.vals) {
		return 0
	}
	return h.vals[i]
}

// Release returns the dense array to the pool; afterwards Get reports 0 for
// every symbol. Syms and Freqs stay valid.
func (h *Hist) Release() {
	if h.buf != nil {
		pool.Put(h.buf)
	}
	h.buf, h.dense, h.vals = nil, nil, nil
}
