package rans

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cliz/internal/huffman"
)

func TestRoundTripSimple(t *testing.T) {
	syms := []uint32{1, 1, 1, 2, 2, 3, 7, 7, 7, 7, 7}
	blob, ok := EncodeBlock(syms)
	if !ok {
		t.Fatal("encode refused")
	}
	got, n, err := DecodeBlock(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Fatalf("consumed %d of %d", n, len(blob))
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatalf("got %v want %v", got, syms)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	blob, ok := EncodeBlock[uint32](nil)
	if !ok {
		t.Fatal("empty refused")
	}
	got, _, err := DecodeBlock(blob)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty decode: %v %v", got, err)
	}
	blob, ok = EncodeBlock([]uint32{42})
	if !ok {
		t.Fatal("single refused")
	}
	got, _, err = DecodeBlock(blob)
	if err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("single decode: %v %v", got, err)
	}
}

func TestSingleSymbolRun(t *testing.T) {
	syms := make([]uint32, 100000)
	for i := range syms {
		syms[i] = 7
	}
	blob, ok := EncodeBlock(syms)
	if !ok {
		t.Fatal("refused")
	}
	// A degenerate distribution should compress to nearly nothing.
	if len(blob) > 100 {
		t.Fatalf("constant run used %d bytes", len(blob))
	}
	got, _, err := DecodeBlock(blob)
	if err != nil || len(got) != len(syms) {
		t.Fatalf("decode: %d %v", len(got), err)
	}
	for i := range got {
		if got[i] != 7 {
			t.Fatalf("got[%d] = %d", i, got[i])
		}
	}
}

func TestCompressionBeatsOrMatchesHuffmanOnSkewedBins(t *testing.T) {
	// Quantization-bin-like data: sharp peak at the centre.
	// A very sharp peak (sub-bit entropy) is where Huffman's 1-bit-per-
	// symbol floor hurts and rANS shines — exactly the regime of
	// quantization bins from a well-predicted smooth field.
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 200000)
	for i := range syms {
		syms[i] = uint32(32768 + int32(rng.NormFloat64()*0.4))
	}
	rblob, ok := EncodeBlock(syms)
	if !ok {
		t.Fatal("refused")
	}
	hblob := huffman.EncodeBlock(syms)
	// rANS has sub-bit precision, Huffman ≥1 bit/symbol: on a sharply
	// peaked distribution rANS should win clearly.
	if float64(len(rblob)) > 0.95*float64(len(hblob)) {
		t.Fatalf("rANS %d bytes vs huffman %d — expected a clear win", len(rblob), len(hblob))
	}
	got, _, err := DecodeBlock(rblob)
	if err != nil || !reflect.DeepEqual(got, syms) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestAlphabetLimit(t *testing.T) {
	syms := make([]uint32, MaxAlphabet+10)
	for i := range syms {
		syms[i] = uint32(i) // too many distinct symbols
	}
	if _, ok := EncodeBlock(syms); ok {
		t.Fatal("oversized alphabet accepted")
	}
	// Exactly at the limit must work.
	at := make([]uint32, MaxAlphabet)
	for i := range at {
		at[i] = uint32(i)
	}
	blob, ok := EncodeBlock(at)
	if !ok {
		t.Fatal("alphabet at limit refused")
	}
	got, _, err := DecodeBlock(blob)
	if err != nil || !reflect.DeepEqual(got, at) {
		t.Fatalf("limit round trip: %v", err)
	}
}

func TestFrequencyScalingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		counts := map[uint32]uint64{}
		n := rng.Intn(500) + 1
		for i := 0; i < n; i++ {
			counts[uint32(rng.Intn(2000))] = uint64(rng.Intn(100000) + 1)
		}
		syms := make([]uint32, 0, len(counts))
		for s := range counts {
			syms = append(syms, s)
		}
		slices.Sort(syms)
		freqs := make([]uint64, len(syms))
		for i, s := range syms {
			freqs[i] = counts[s]
		}
		tbl, ok := buildTable(syms, freqs)
		if !ok {
			t.Fatal("refused")
		}
		var sum uint32
		for _, f := range tbl.freq {
			if f == 0 {
				t.Fatal("zero frequency")
			}
			sum += f
		}
		if sum != scaleTotal {
			t.Fatalf("frequencies sum to %d", sum)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000)
		alpha := rng.Intn(300) + 1
		syms := make([]uint32, n)
		for i := range syms {
			syms[i] = uint32(rng.Intn(alpha))
		}
		blob, ok := EncodeBlock(syms)
		if !ok {
			return false
		}
		got, _, err := DecodeBlock(blob)
		if err != nil {
			return false
		}
		if len(got) != len(syms) {
			return false
		}
		return reflect.DeepEqual(got, syms) || (len(got) == 0 && len(syms) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	blob, _ := EncodeBlock([]uint32{1, 2, 3, 1, 2, 3, 1, 1})
	for cut := 1; cut < len(blob); cut++ {
		if got, _, err := DecodeBlock(blob[:cut]); err == nil && len(got) == 8 {
			t.Fatalf("truncation at %d decoded fully", cut)
		}
	}
	if _, _, err := DecodeBlock(nil); err == nil {
		t.Fatal("nil accepted")
	}
	// Flip bytes in the stream: must not panic (errors allowed, and some
	// flips may decode to wrong-but-valid symbols — that is the lossless
	// wrapper's concern).
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x5a
		_, _, _ = DecodeBlock(bad)
	}
}
