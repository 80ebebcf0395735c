package lossless

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var codecs = []Codec{Raw{}, Flate{Level: 6}, LZSS{}}

func TestRoundTripAllBackends(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0},
		[]byte("hello world hello world hello world"),
		bytes.Repeat([]byte{0xab}, 10000),
		bytes.Repeat([]byte("abcdefgh"), 997),
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4096)
	rng.Read(random)
	// Past the decoders' 1 MiB initial capacity, so their output grows.
	large := make([]byte, 1<<20+4099)
	for i := range large {
		large[i] = byte(rng.Intn(6))
	}
	payloads = append(payloads, random, large)

	for _, c := range codecs {
		for i, p := range payloads {
			blob := Encode(c, p)
			got, err := Decode(blob)
			if err != nil {
				t.Fatalf("%s payload %d: %v", c.Name(), i, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("%s payload %d: round trip mismatch (%d vs %d bytes)",
					c.Name(), i, len(got), len(p))
			}
		}
	}
}

func TestCompressionOnRepetitiveData(t *testing.T) {
	src := bytes.Repeat([]byte("climate data 123 "), 2000)
	for _, c := range []Codec{Flate{Level: 6}, LZSS{}} {
		blob := Encode(c, src)
		if len(blob) >= len(src)/4 {
			t.Fatalf("%s: weak compression: %d -> %d", c.Name(), len(src), len(blob))
		}
	}
}

func TestDecodeUnknownID(t *testing.T) {
	if _, err := Decode([]byte{99, 0, 0}); err == nil {
		t.Fatal("unknown backend id should fail")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty stream should fail")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	src := bytes.Repeat([]byte("xyz"), 500)
	for _, c := range []Codec{Flate{Level: 6}, LZSS{}} {
		blob := Encode(c, src)
		for _, cut := range []int{1, 5, len(blob) / 2} {
			if cut >= len(blob) {
				continue
			}
			if got, err := Decode(blob[:cut]); err == nil && bytes.Equal(got, src) {
				t.Fatalf("%s: truncated stream decoded to full payload", c.Name())
			}
		}
	}
}

func TestLZSSMatchBoundaries(t *testing.T) {
	// Overlapping match (dist < len) — the classic LZ77 RLE trick.
	src := append([]byte{1, 2, 3, 4}, bytes.Repeat([]byte{5}, 300)...)
	blob := Encode(LZSS{}, src)
	got, err := Decode(blob)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("overlap decode failed: %v", err)
	}
}

func TestLZSSLongInput(t *testing.T) {
	// Exceed the 64 KiB window to exercise the window limit.
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 200000)
	for i := range src {
		src[i] = byte(rng.Intn(4)) // low entropy
	}
	blob := Encode(LZSS{}, src)
	got, err := Decode(blob)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatal("long input round trip failed")
	}
	if len(blob) > len(src) {
		t.Fatalf("low-entropy input expanded: %d -> %d", len(src), len(blob))
	}
}

func TestByID(t *testing.T) {
	for _, c := range codecs {
		got, err := ByID(c.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != c.Name() {
			t.Fatalf("ByID(%d) = %s want %s", c.ID(), got.Name(), c.Name())
		}
	}
}

func TestQuickLZSS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5000)
		src := make([]byte, n)
		// Mixture of runs and noise.
		for i := 0; i < n; {
			if rng.Intn(2) == 0 {
				run := rng.Intn(50) + 1
				b := byte(rng.Intn(256))
				for j := 0; j < run && i < n; j++ {
					src[i] = b
					i++
				}
			} else {
				src[i] = byte(rng.Intn(256))
				i++
			}
		}
		blob := Encode(LZSS{}, src)
		got, err := Decode(blob)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
