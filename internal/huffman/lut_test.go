package huffman

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cliz/internal/bitio"
	"cliz/internal/symhist"
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

// fuzzCodec builds a codec from a valid length table drawn from b: each
// byte gives one symbol a length, short (1–16 bits) for most byte values
// and up to MaxCodeLen for the rest, lengthened where needed to keep the
// Kraft sum at most 1. high puts the alphabet at the top of the uint32
// range, where int32 destinations hold negative values. The table goes
// through SerializeTable and ParseTable, as on decode.
func fuzzCodec(t *testing.T, b []byte, high bool) *Codec {
	const one = uint64(1) << MaxCodeLen // Kraft sum 1, in units of 2^-MaxCodeLen
	var lens []uint8
	left := one
	for _, v := range b {
		l := 1 + uint(v)%16
		if v >= 200 {
			l = 17 + uint(v)%(MaxCodeLen-16)
		}
		for l < MaxCodeLen && 1<<(MaxCodeLen-l) > left {
			l++
		}
		if left == 0 || len(lens) == 300 {
			break
		}
		lens = append(lens, uint8(l))
		left -= 1 << (MaxCodeLen - l)
	}
	if len(lens) == 0 {
		return nil
	}
	base := uint32(32768 - 150)
	if high {
		base = 0xffffff00 - 300
	}
	syms := make([]uint32, len(lens))
	for i := range syms {
		syms[i] = base + uint32(i)
	}
	c, _, err := ParseTable(fromLengths(syms, lens, nil).SerializeTable(nil))
	if err != nil {
		t.Fatalf("valid lengths %v rejected: %v", lens, err)
	}
	return c
}

// FuzzDecodeSymbols checks the window decode against a DecodeOne loop on
// random valid codes and on random, truncated and padded bitstreams, into
// int32 and uint32 destinations. The symbols decoded before any error and
// the error itself must agree, and so must the bits consumed on success.
func FuzzDecodeSymbols(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2}, []byte{0x12, 0x34, 0x56, 0x00, 0xff}, uint16(9), uint8(0))
	f.Add([]byte{0, 7, 8, 9, 10, 11, 12, 13, 14, 14}, bytes.Repeat([]byte{0, 0, 0, 0x81}, 40), uint16(3), uint8(2))
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12}, bytes.Repeat([]byte{0x10, 0x9f, 0xc3}, 30), uint16(5), uint8(3))
	f.Add([]byte{0, 1, 255, 254, 253, 252, 251}, bytes.Repeat([]byte{0xff, 0x7f, 0}, 30), uint16(1), uint8(4))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 9, 10, 11, 12, 13, 14, 15, 210, 230}, []byte("long codes past the table and the window"), uint16(2), uint8(5))
	f.Fuzz(func(t *testing.T, lens, data []byte, count uint16, mode uint8) {
		c := fuzzCodec(t, lens, mode&1 != 0)
		if c == nil {
			return
		}
		stream, n := data, int(count%2048)
		if kind := mode >> 1 % 3; kind > 0 {
			// A valid stream: bytes below 128 pick the zero code, so runs
			// of it are common; the rest pick any symbol.
			syms := make([]uint32, len(data))
			for i, b := range data {
				syms[i] = c.symsByCode[0]
				if b >= 128 {
					syms[i] = c.syms[int(b)%len(c.syms)]
				}
			}
			w := bitio.NewWriter(0)
			if err := c.Encode(syms, w); err != nil {
				t.Fatal(err)
			}
			stream, n = w.Bytes(), len(syms)
			if kind == 1 {
				stream = stream[:len(stream)-int(count)%(len(stream)+1)] // truncated
			} else {
				stream = append(stream, data[:int(count)%(len(data)+1)]...) // padded
				n += int(count) % 4
			}
		}
		want := make([]uint32, n)
		ref := bitio.NewReader(stream)
		var m int
		var werr error
		for ; m < n; m++ {
			if want[m], werr = c.DecodeOne(ref); werr != nil {
				break
			}
		}
		left := ref.BitsRemaining()
		checkDecode(t, c, stream, make([]int32, n), want[:m], werr, left)
		checkDecode(t, c, stream, make([]uint32, n), want[:m], werr, left)
	})
}

// checkDecode decodes stream into dst and compares with a DecodeOne loop
// that decoded want, then failed with werr or stopped with left bits unread.
func checkDecode[S symhist.Symbol](t *testing.T, c *Codec, stream []byte, dst []S, want []uint32, werr error, left int) {
	t.Helper()
	r := bitio.NewReader(stream)
	if _, err := decodeSymbols(c, dst, r); err != werr {
		t.Fatalf("%T: error %v, DecodeOne loop %v after %d symbols", dst, err, werr, len(want))
	}
	for i, s := range want {
		if uint32(dst[i]) != s {
			t.Fatalf("%T: symbol %d: got %d, DecodeOne loop %d", dst, i, uint32(dst[i]), s)
		}
	}
	if werr == nil && r.BitsRemaining() != left {
		t.Fatalf("%T: %d bits left, DecodeOne loop %d", dst, r.BitsRemaining(), left)
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

// decodeShapes are bin distributions in the shape of the bench's archive
// workloads at their bounds, by the code lengths they give: on cesm one
// 1-bit code carries 99% of the bins; ssh's codes are 1–3 bits; hurricane's
// are 8–18 bits, 4% of them longer than the LUT window.
var decodeShapes = []struct {
	name string
	bin  func(rng *rand.Rand) uint32
}{
	{"cesm", func(rng *rand.Rand) uint32 {
		if rng.Float64() < 0.99 {
			return 32768
		}
		v := 1 + int(rng.ExpFloat64()*4)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return uint32(32768 + v)
	}},
	{"ssh", func(rng *rand.Rand) uint32 {
		switch u := rng.Float64(); {
		case u < 0.5:
			return 32768
		case u < 0.7:
			return 32767
		case u < 0.9:
			return 32769
		}
		return 32770
	}},
	{"hurricane", func(rng *rand.Rand) uint32 {
		if rng.Float64() < 2e-4 {
			return 0 // literal escape
		}
		return uint32(32768 + int(math.Round(rng.NormFloat64()*130)))
	}},
}

// shapeStream draws n bins of one shape and encodes them with a codec built
// from the bins themselves, as the encoder does.
func shapeStream(tb testing.TB, seed int64, n int, bin func(*rand.Rand) uint32) (*Codec, []uint32, []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	syms := make([]uint32, n)
	for i := range syms {
		syms[i] = bin(rng)
	}
	c := Build(syms)
	w := bitio.NewWriter(0)
	if err := c.Encode(syms, w); err != nil {
		tb.Fatal(err)
	}
	return c, syms, w.Bytes()
}

// TestDecodeSymbolsSlowPath counts the symbols that leave the window decode
// for DecodeOne on each decode shape. Only symbols whose code starts in the
// stream's final 56 bits may: a lookup table that is skipped, a run path
// that is skipped or codes longer than the table that are not read from the
// window all send the bulk of a shape down the slow path and fail here.
func TestDecodeSymbolsSlowPath(t *testing.T) {
	for _, sh := range decodeShapes {
		for seed, n := range []int{1, 57, 1000, 1 << 18} {
			c, syms, stream := shapeStream(t, int64(seed+1), n, sh.bin)
			// Symbols whose code ends in the stream's final 56 bits, which
			// close with the zero padding of the last byte.
			tail, bits := 0, 8*len(stream)-c.bitLen(syms)
			for i := len(syms) - 1; i >= 0 && bits < 56; i-- {
				bits += int(c.CodeLen(syms[i]))
				tail++
			}
			got := make([]int32, n)
			slow, err := decodeSymbols(c, got, bitio.NewReader(stream))
			if err != nil {
				t.Fatalf("%s n=%d: %v", sh.name, n, err)
			}
			for i := range syms {
				if uint32(got[i]) != syms[i] {
					t.Fatalf("%s n=%d: symbol %d: got %d want %d", sh.name, n, i, got[i], syms[i])
				}
			}
			if slow > tail {
				t.Errorf("%s n=%d (code lengths %d–%d): %d symbols took DecodeOne, want at most the %d in the final window",
					sh.name, n, c.minLen, c.maxLen, slow, tail)
			}
		}
	}
}

// bitLen returns the number of bits the codes of syms take.
func (c *Codec) bitLen(syms []uint32) int {
	n := 0
	for _, s := range syms {
		n += int(c.CodeLen(s))
	}
	return n
}

// BenchmarkDecodeIntoLUT decodes 2^18 bins of each decode shape, reporting
// the time per symbol.
func BenchmarkDecodeIntoLUT(b *testing.B) {
	for _, sh := range decodeShapes {
		b.Run(sh.name, func(b *testing.B) {
			c, syms, stream := shapeStream(b, 1, 1<<18, sh.bin)
			dst := make([]uint32, len(syms))
			b.SetBytes(int64(len(stream)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeSymbols(c, dst, bitio.NewReader(stream)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(syms)), "ns/symbol")
		})
	}
}

// BenchmarkDecodeTree is BenchmarkDecodeIntoLUT through the canonical
// bit-by-bit walk alone.
func BenchmarkDecodeTree(b *testing.B) {
	for _, sh := range decodeShapes {
		b.Run(sh.name, func(b *testing.B) {
			c, syms, stream := shapeStream(b, 1, 1<<18, sh.bin)
			b.SetBytes(int64(len(stream)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decodeTree(c, len(syms), bitio.NewReader(stream)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(syms)), "ns/symbol")
		})
	}
}
