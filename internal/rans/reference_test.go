package rans

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"cliz/internal/symhist"
)

// This file keeps the original map-based counter and symbol index as a
// reference: the dense-histogram encoders must reproduce its bytes exactly.

func refTable(symbols []uint32) (*freqTable, map[uint32]int, bool) {
	counts := make(map[uint32]uint64)
	for _, s := range symbols {
		counts[s]++
	}
	syms := make([]uint32, 0, len(counts))
	for s := range counts {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	freqs := make([]uint64, len(syms))
	index := make(map[uint32]int, len(syms))
	for i, s := range syms {
		freqs[i] = counts[s]
		index[s] = i
	}
	t, ok := buildTable(syms, freqs)
	return t, index, ok
}

func refEncodeBlock(symbols []uint32) ([]byte, bool) {
	if len(symbols) == 0 {
		return appendUvarint(appendUvarint(nil, 0), 0), true
	}
	t, index, ok := refTable(symbols)
	if !ok {
		return nil, false
	}
	out := t.serialize(nil)
	out = appendUvarint(out, uint64(len(symbols)))
	var stream []byte
	x := uint32(ransL)
	for i := len(symbols) - 1; i >= 0; i-- {
		idx := index[symbols[i]]
		f := t.freq[idx]
		for x >= ((ransL>>scaleBits)<<8)*f {
			stream = append(stream, byte(x))
			x >>= 8
		}
		x = ((x / f) << scaleBits) + (x % f) + t.cum[idx]
	}
	for i, j := 0, len(stream)-1; i < j; i, j = i+1, j-1 {
		stream[i], stream[j] = stream[j], stream[i]
	}
	out = appendUvarint(out, uint64(len(stream)+4))
	out = binary.LittleEndian.AppendUint32(out, x)
	return append(out, stream...), true
}

func refEncodeInterleavedBlock(symbols []uint32, ways int) ([]byte, bool) {
	if len(symbols) == 0 {
		return appendUvarint(appendUvarint(nil, 0), 0), true
	}
	t, index, ok := refTable(symbols)
	if !ok {
		return nil, false
	}
	out := t.serialize(nil)
	out = appendUvarint(out, uint64(len(symbols)))
	out = append(out, byte(ways))
	states := make([]uint32, ways)
	for w := range states {
		states[w] = ransL
	}
	streams := make([][]byte, ways)
	for i := len(symbols) - 1; i >= 0; i-- {
		w := i % ways
		x := states[w]
		idx := index[symbols[i]]
		f := t.freq[idx]
		for x >= ((ransL>>scaleBits)<<8)*f {
			streams[w] = append(streams[w], byte(x))
			x >>= 8
		}
		states[w] = ((x/f)<<scaleBits + x%f) + t.cum[idx]
	}
	for _, s := range streams {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	for _, s := range streams {
		out = appendUvarint(out, uint64(len(s)))
	}
	for _, x := range states {
		out = binary.LittleEndian.AppendUint32(out, x)
	}
	for _, s := range streams {
		out = append(out, s...)
	}
	return out, true
}

func TestDenseMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	refused := 0
	for _, sh := range []struct {
		n, k     int
		lo, span uint64
	}{
		{7, 3, 32766, 8},
		{5000, 60, 32700, 200},
		{20000, 800, 0, 33000},
		{20000, 900, 10, symhist.MaxSpan + 1},
		{40, 20, 0, 50000},
		{6000, 300, 0, 1 << 32},
		{30000, 2 * MaxAlphabet, 0, 1 << 20},
	} {
		for trial := 0; trial < 3; trial++ {
			vals := make([]uint32, sh.k)
			for i := range vals {
				vals[i] = uint32(sh.lo + uint64(rng.Int63n(int64(sh.span))))
			}
			syms := make([]uint32, sh.n)
			for i := range syms {
				syms[i] = vals[min(rng.Intn(sh.k), rng.Intn(sh.k))]
			}
			got, ok := EncodeBlock(syms)
			want, wok := refEncodeBlock(syms)
			if !wok {
				refused++
			}
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("k=%d span=%d: EncodeBlock differs from map reference (ok %v/%v)", sh.k, sh.span, ok, wok)
			}
			for _, ways := range []int{1, 3, DefaultWays} {
				got, ok := EncodeInterleavedBlock(syms, ways)
				want, wok := refEncodeInterleavedBlock(syms, ways)
				if ok != wok || !bytes.Equal(got, want) {
					t.Fatalf("k=%d span=%d ways=%d: interleaved block differs from map reference", sh.k, sh.span, ways)
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no case exceeded MaxAlphabet")
	}
}
