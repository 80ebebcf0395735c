package huffman

import (
	"errors"
	"math/rand"
	"testing"

	"cliz/internal/bitio"
)

// decodeTree is the reference decoder: the canonical bit-by-bit walk with
// no LUT involvement. The LUT fast path must be observationally identical
// to this loop on every input.
func decodeTree(c *Codec, n int, r *bitio.Reader) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		s, err := c.DecodeOne(r)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// randCodec builds a codec over `alphabet` symbols with frequencies skewed
// by `skew`: higher skew produces longer max code lengths, pushing symbols
// past the lutBits window so the fallback path is exercised too.
func randCodec(rng *rand.Rand, alphabet int, skew float64) (*Codec, []uint32) {
	freqs := make(map[uint32]uint64, alphabet)
	pool := make([]uint32, 0, 4*alphabet)
	for i := 0; i < alphabet; i++ {
		s := uint32(rng.Intn(1 << 20))
		f := uint64(1)
		for f < 1<<40 && rng.Float64() < skew {
			f *= 3
		}
		freqs[s] = f
		reps := 1
		if f > 1<<20 {
			reps = 4
		}
		for r := 0; r < reps; r++ {
			pool = append(pool, s)
		}
	}
	return codecFromFreqs(freqs), pool
}

func TestDecodeIntoMatchesTreeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for _, alphabet := range []int{1, 2, 3, 17, 300, 3000} {
		for _, skew := range []float64{0, 0.5, 0.9} {
			c, pool := randCodec(rng, alphabet, skew)
			for _, n := range []int{1, 7, 256, 5000} {
				syms := make([]uint32, n)
				for i := range syms {
					syms[i] = pool[rng.Intn(len(pool))]
				}
				w := bitio.NewWriter(0)
				if err := c.Encode(syms, w); err != nil {
					t.Fatal(err)
				}
				stream := w.Bytes()

				want, err := decodeTree(c, n, bitio.NewReader(stream))
				if err != nil {
					t.Fatalf("alphabet=%d skew=%v n=%d: tree decode: %v", alphabet, skew, n, err)
				}
				got := make([]uint32, n)
				if err := DecodeSymbols(c, got, bitio.NewReader(stream)); err != nil {
					t.Fatalf("alphabet=%d skew=%v n=%d: LUT decode: %v", alphabet, skew, n, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("alphabet=%d skew=%v n=%d: symbol %d: LUT=%d tree=%d",
							alphabet, skew, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDecodeIntoMatchesTreeOnReserializedCodec runs the differential through
// a SerializeTable/ParseTable round trip, so the LUT is also validated on
// codecs reconstructed from the wire format (the decode-side reality).
func TestDecodeIntoMatchesTreeOnReserializedCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c, pool := randCodec(rng, 500, 0.8)
	syms := make([]uint32, 4096)
	for i := range syms {
		syms[i] = pool[rng.Intn(len(pool))]
	}
	w := bitio.NewWriter(0)
	if err := c.Encode(syms, w); err != nil {
		t.Fatal(err)
	}
	stream := w.Bytes()
	parsed, _, err := ParseTable(c.SerializeTable(nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeTree(parsed, len(syms), bitio.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint32, len(syms))
	if err := DecodeSymbols(parsed, got, bitio.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("symbol %d: LUT=%d tree=%d", i, got[i], want[i])
		}
	}
}

// TestDecodeIntoLongCodesPastLUT forces a degenerate exponential-frequency
// alphabet whose longest codes exceed lutBits, pinning that the fallback
// path both triggers and agrees with the tree decoder.
func TestDecodeIntoLongCodesPastLUT(t *testing.T) {
	freqs := make(map[uint32]uint64)
	f := uint64(1)
	for i := uint32(0); i < 20; i++ {
		freqs[i] = f
		if f < 1<<50 {
			f *= 2
		}
	}
	c := codecFromFreqs(freqs)
	if c.maxLen <= lutBits {
		t.Fatalf("fixture too shallow: maxLen=%d, want > %d", c.maxLen, lutBits)
	}
	syms := make([]uint32, 0, 400)
	for i := uint32(0); i < 20; i++ {
		for r := uint32(0); r <= i; r++ {
			syms = append(syms, i)
		}
	}
	w := bitio.NewWriter(0)
	if err := c.Encode(syms, w); err != nil {
		t.Fatal(err)
	}
	stream := w.Bytes()
	want, err := decodeTree(c, len(syms), bitio.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint32, len(syms))
	if err := DecodeSymbols(c, got, bitio.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("symbol %d: LUT=%d tree=%d", i, got[i], want[i])
		}
	}
}

// TestDecodeIntoCorruptDifferential checks that on truncated and bit-flipped
// streams the LUT path fails exactly when the tree path fails — same inputs,
// same classifiable error, no panic, no silent extra symbols.
func TestDecodeIntoCorruptDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, pool := randCodec(rng, 200, 0.7)
	syms := make([]uint32, 2000)
	for i := range syms {
		syms[i] = pool[rng.Intn(len(pool))]
	}
	w := bitio.NewWriter(0)
	if err := c.Encode(syms, w); err != nil {
		t.Fatal(err)
	}
	stream := w.Bytes()
	mutants := [][]byte{stream[:0], stream[:1], stream[:len(stream)/2], stream[:len(stream)-1]}
	for trial := 0; trial < 100; trial++ {
		mut := append([]byte(nil), stream...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		mutants = append(mutants, mut)
	}
	for mi, mut := range mutants {
		want, werr := decodeTree(c, len(syms), bitio.NewReader(mut))
		got := make([]uint32, len(syms))
		gerr := DecodeSymbols(c, got, bitio.NewReader(mut))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("mutant %d: tree err=%v, LUT err=%v", mi, werr, gerr)
		}
		if werr != nil {
			if !errors.Is(gerr, ErrCorrupt) && !errors.Is(gerr, bitio.ErrOverrun) {
				t.Fatalf("mutant %d: unclassified LUT error %v", mi, gerr)
			}
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mutant %d: symbol %d: LUT=%d tree=%d", mi, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeBlockUsesLUTConsistently covers the self-contained block API:
// round-trip plus truncation must keep the classifiable-error contract now
// that DecodeBlockMax decodes through the LUT path.
func TestDecodeBlockUsesLUTConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	syms := make([]uint32, 3000)
	for i := range syms {
		syms[i] = uint32(rng.Intn(64))
	}
	blob := EncodeBlock(syms)
	got, n, err := DecodeBlock(blob)
	if err != nil || n != len(blob) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], syms[i])
		}
	}
	for cut := 1; cut < len(blob); cut += 97 {
		if _, _, err := DecodeBlock(blob[:cut]); err == nil {
			continue // a prefix can be self-consistent; only classify failures
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, bitio.ErrOverrun) {
			t.Fatalf("cut=%d: unclassified error %v", cut, err)
		}
	}
}

// benchStream models the production shape: a geometric-ish quantizer-bin
// distribution with the codec built from the stream itself, as the encoder
// does, so code lengths match the data.
func benchStream(b *testing.B) (*Codec, []uint32, []byte) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 1<<16)
	for i := range syms {
		v := uint32(0)
		for v < 255 && rng.Intn(3) > 0 {
			v++
		}
		syms[i] = v
	}
	c := Build(syms)
	w := bitio.NewWriter(0)
	if err := c.Encode(syms, w); err != nil {
		b.Fatal(err)
	}
	return c, syms, w.Bytes()
}

func BenchmarkDecodeIntoLUT(b *testing.B) {
	c, syms, stream := benchStream(b)
	dst := make([]uint32, len(syms))
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeSymbols(c, dst, bitio.NewReader(stream)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTree(b *testing.B) {
	c, syms, stream := benchStream(b)
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(stream)
		for range syms {
			if _, err := c.DecodeOne(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
