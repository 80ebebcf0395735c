package lossless

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecode drives all lossless decoders with arbitrary streams.
func FuzzDecode(f *testing.F) {
	payload := []byte("the quick brown fox jumps over the lazy dog, twice over")
	for _, c := range []Codec{Raw{}, Flate{Level: 6}, LZSS{}} {
		f.Add(Encode(c, payload))
	}
	f.Add([]byte{IDLZSS, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		_, _ = Decode(blob)
	})
}

// FuzzLZSSRoundTrip checks that anything compressible decompresses to
// itself — the stronger property, fuzzed on the encoder side.
func FuzzLZSSRoundTrip(f *testing.F) {
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaabbbbcc"))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})

	f.Fuzz(func(t *testing.T, src []byte) {
		blob := Encode(LZSS{}, src)
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if len(got) != len(src) {
			t.Fatalf("length %d != %d", len(got), len(src))
		}
		for i := range got {
			if got[i] != src[i] {
				t.Fatalf("byte %d differs", i)
			}
		}
	})
}

// FuzzEncode round-trips arbitrary payloads through the default (nil
// codec) path and checks it picked the backend the entropy rule names.
func FuzzEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaabbbbcc"))
	random := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(random)
	f.Add(random)

	f.Fuzz(func(t *testing.T, src []byte) {
		blob := Encode(nil, src)
		want := IDFlate
		if byteEntropy(src) >= rawEntropy {
			want = IDRaw
		}
		if blob[0] != want {
			t.Fatalf("backend id %d, want %d", blob[0], want)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch (%d vs %d bytes)", len(got), len(src))
		}
	})
}
