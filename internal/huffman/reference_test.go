package huffman

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cliz/internal/bitio"
	"cliz/internal/symhist"
)

// This file keeps the original map-based counter and coder as a reference:
// the dense-histogram encoder must reproduce its bytes and its errors
// exactly.

type refCode struct {
	bits uint64
	len  uint
}

type refNode struct {
	freq  uint64
	depth int
	seq   int
	sym   uint32
	leaf  bool
	l, r  *refNode
}

type refHeap []*refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	if h[i].depth != h[j].depth {
		return h[i].depth < h[j].depth
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refNode)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func refCountFreqs(symbols []uint32) map[uint32]uint64 {
	f := make(map[uint32]uint64)
	for _, s := range symbols {
		f[s]++
	}
	return f
}

func refBuildLengths(freqs map[uint32]uint64) map[uint32]uint {
	f := make(map[uint32]uint64, len(freqs))
	for s, c := range freqs {
		if c > 0 {
			f[s] = c
		}
	}
	for {
		lens := refHuffLengths(f)
		maxL := uint(0)
		for _, l := range lens {
			maxL = max(maxL, l)
		}
		if maxL <= MaxCodeLen {
			return lens
		}
		for s, c := range f {
			f[s] = c/2 + 1
		}
	}
}

func refHuffLengths(freqs map[uint32]uint64) map[uint32]uint {
	lens := make(map[uint32]uint, len(freqs))
	switch len(freqs) {
	case 0:
		return lens
	case 1:
		for s := range freqs {
			lens[s] = 1
		}
		return lens
	}
	syms := make([]uint32, 0, len(freqs))
	for s := range freqs {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	h := make(refHeap, 0, len(freqs))
	seq := 0
	for _, s := range syms {
		h = append(h, &refNode{freq: freqs[s], seq: seq, sym: s, leaf: true})
		seq++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*refNode)
		b := heap.Pop(&h).(*refNode)
		heap.Push(&h, &refNode{freq: a.freq + b.freq, depth: max(a.depth, b.depth) + 1, seq: seq, l: a, r: b})
		seq++
	}
	var walk func(n *refNode, d uint)
	walk = func(n *refNode, d uint) {
		if n.leaf {
			lens[n.sym] = d
			return
		}
		walk(n.l, d+1)
		walk(n.r, d+1)
	}
	walk(h[0], 0)
	return lens
}

// refCodes assigns canonical codes ordered by (length, symbol).
func refCodes(lens map[uint32]uint) map[uint32]refCode {
	type sl struct {
		sym uint32
		l   uint
	}
	order := make([]sl, 0, len(lens))
	for s, l := range lens {
		order = append(order, sl{s, l})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].l != order[j].l {
			return order[i].l < order[j].l
		}
		return order[i].sym < order[j].sym
	})
	codes := make(map[uint32]refCode, len(lens))
	code := uint64(0)
	for i, e := range order {
		if i > 0 {
			code = (code + 1) << (e.l - order[i-1].l)
		}
		codes[e.sym] = refCode{bits: code, len: e.l}
	}
	return codes
}

func refSerialize(codes map[uint32]refCode) []byte {
	syms := make([]uint32, 0, len(codes))
	for s := range codes {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	dst := appendUvarint(nil, uint64(len(syms)))
	prev := uint32(0)
	for i, s := range syms {
		d := uint64(s)
		if i > 0 {
			d = uint64(s - prev)
		}
		prev = s
		dst = appendUvarint(dst, d)
		dst = append(dst, byte(codes[s].len))
	}
	return dst
}

func refEncode(codes map[uint32]refCode, symbols []uint32, w *bitio.Writer) error {
	for _, s := range symbols {
		cd, ok := codes[s]
		if !ok {
			return fmt.Errorf("huffman: symbol %d not in alphabet", s)
		}
		w.WriteBits(cd.bits, cd.len)
	}
	return nil
}

func refEncodeBlock(symbols []uint32) []byte {
	codes := refCodes(refBuildLengths(refCountFreqs(symbols)))
	out := refSerialize(codes)
	out = appendUvarint(out, uint64(len(symbols)))
	w := bitio.NewWriter(len(symbols) / 2)
	_ = refEncode(codes, symbols, w)
	bits := w.Bytes()
	out = appendUvarint(out, uint64(len(bits)))
	return append(out, bits...)
}

// randomAlphabet draws n symbols from k distinct values spread over a span
// starting at lo, with Zipf-skewed frequencies.
func randomAlphabet(rng *rand.Rand, n, k int, lo, span uint64) []uint32 {
	vals := make([]uint32, k)
	for i := range vals {
		vals[i] = uint32(lo + uint64(rng.Int63n(int64(span))))
	}
	z := rand.NewZipf(rng, 1.3, 2, uint64(k-1))
	out := make([]uint32, n)
	for i := range out {
		out[i] = vals[z.Uint64()]
	}
	return out
}

func TestDenseMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type shape struct {
		name     string
		n, k     int
		lo, span uint64
	}
	shapes := []shape{
		{"tiny", 5, 3, 32760, 16},
		{"narrow", 4000, 40, 32700, 140},
		{"radius-span", 20000, 600, 0, 33000},
		{"at-cap", 30000, 900, 1000, symhist.MaxSpan},
		{"past-cap", 30000, 900, 1000, symhist.MaxSpan + 1},
		{"sparse-small-n", 50, 30, 0, 60000},
		{"full-range", 8000, 300, 0, 1 << 32},
		{"high", 3000, 50, 1<<32 - 5000, 5000},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 4; trial++ {
			syms := randomAlphabet(rng, sh.n, sh.k, sh.lo, sh.span)
			if sh.name == "at-cap" || sh.name == "past-cap" {
				// Pin the exact span.
				syms[0], syms[1] = uint32(sh.lo), uint32(sh.lo+sh.span-1)
			}
			got, want := EncodeBlock(syms), refEncodeBlock(syms)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s trial %d: dense encoder differs from map reference", sh.name, trial)
			}
		}
	}
}

func TestDampedTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		f := fibFreqs()
		// Perturb the skew so each trial damps differently.
		for s, c := range f {
			f[s] = c + uint64(rng.Intn(3))
		}
		f[uint32(rng.Intn(90))] = 0 // ignored by both
		c := codecFromFreqs(f)
		codes := refCodes(refBuildLengths(f))
		if got, want := c.SerializeTable(nil), refSerialize(codes); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: damped table differs from reference", trial)
		}
		for s, cd := range codes {
			w := bitio.NewWriter(8)
			if err := c.Encode([]uint32{s}, w); err != nil {
				t.Fatal(err)
			}
			rw := bitio.NewWriter(8)
			_ = refEncode(codes, []uint32{s}, rw)
			if c.CodeLen(s) != cd.len || !bytes.Equal(w.Bytes(), rw.Bytes()) {
				t.Fatalf("trial %d: symbol %d coded differently", trial, s)
			}
		}
	}
}

func TestUnknownSymbolMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, span := range []uint64{100, symhist.MaxSpan + 5, 1 << 32} {
		syms := randomAlphabet(rng, 2000, 50, 0, span)
		c := Build(syms)
		codes := refCodes(refBuildLengths(refCountFreqs(syms)))
		for _, bad := range []uint32{syms[0] + 1, 1<<32 - 1, 0} {
			if _, ok := codes[bad]; ok {
				continue
			}
			probe := append(append([]uint32(nil), syms[:7]...), bad, syms[0])
			w, rw := bitio.NewWriter(8), bitio.NewWriter(8)
			err, rerr := c.Encode(probe, w), refEncode(codes, probe, rw)
			if err == nil || rerr == nil || err.Error() != rerr.Error() {
				t.Fatalf("span %d: error %v, reference %v", span, err, rerr)
			}
			if !bytes.Equal(w.Bytes(), rw.Bytes()) {
				t.Fatalf("span %d: bits before the error differ", span)
			}
		}
		c.Release()
	}
}

// BenchmarkEncodeBlock compares the dense encoder with the map reference on
// a quantizer-shaped stream (123k symbols, escapes beside radius bins).
func BenchmarkEncodeBlock(b *testing.B) {
	syms := quantLike(4, 123000, 8, 0.005)
	for _, bc := range []struct {
		name string
		enc  func([]uint32) []byte
	}{{"dense", EncodeBlock}, {"map-reference", refEncodeBlock}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * len(syms)))
			for i := 0; i < b.N; i++ {
				bc.enc(syms)
			}
		})
	}
}
