package entropy

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBothKindsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 5000)
	for i := range syms {
		syms[i] = uint32(32768 + rng.Intn(9) - 4)
	}
	for _, k := range []Kind{Huffman, RANS} {
		blob := EncodeBlock(k, syms)
		if Kind(blob[0]) != k {
			t.Fatalf("%s: kind byte %d", k, blob[0])
		}
		got, err := DecodeBlock(blob)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !reflect.DeepEqual(got, syms) {
			t.Fatalf("%s: round trip failed", k)
		}
	}
}

func TestRANSFallsBackOnHugeAlphabet(t *testing.T) {
	syms := make([]uint32, 10000)
	for i := range syms {
		syms[i] = uint32(i) // 10000 distinct > rANS slot table
	}
	blob := EncodeBlock(RANS, syms)
	if Kind(blob[0]) != Huffman {
		t.Fatal("expected Huffman fallback")
	}
	got, err := DecodeBlock(blob)
	if err != nil || !reflect.DeepEqual(got, syms) {
		t.Fatalf("fallback round trip: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeBlock(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecodeBlock([]byte{99, 1, 2}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	if Huffman.String() != "huffman" || RANS.String() != "rans" || Kind(7).String() != "unknown" {
		t.Fatal("Kind.String broken")
	}
}

func TestEmpty(t *testing.T) {
	for _, k := range []Kind{Huffman, RANS} {
		got, err := DecodeBlock(EncodeBlock[uint32](k, nil))
		if err != nil || len(got) != 0 {
			t.Fatalf("%s empty: %v %v", k, got, err)
		}
	}
}
