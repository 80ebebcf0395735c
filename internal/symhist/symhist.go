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
	lo, hi := uint32(symbols[0]), uint32(symbols[0])
	for _, s := range symbols {
		lo = min(lo, uint32(s))
		hi = max(hi, uint32(s))
	}
	span := uint64(hi-lo) + 1
	if span > MaxSpan || span > minSymsPerSlot*uint64(len(symbols)) {
		countSparse(h, symbols)
		return h
	}
	h.lo = lo
	h.buf = pool.Get().(*[]uint64)
	if uint64(cap(*h.buf)) < span {
		*h.buf = make([]uint64, max(span, 1<<12))
	}
	d := (*h.buf)[:span]
	clear(d)
	for _, s := range symbols {
		d[uint32(s)-lo]++
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
