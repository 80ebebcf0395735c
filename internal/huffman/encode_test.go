package huffman

import (
	"bytes"
	"math/rand"
	"testing"

	"cliz/internal/bitio"
	"cliz/internal/symhist"
)

// shapeBins draws n int32 bins of one decode shape, as the quantizer hands
// them to the entropy stage.
func shapeBins(seed int64, n int, bin func(*rand.Rand) uint32) []int32 {
	rng := rand.New(rand.NewSource(seed))
	bins := make([]int32, n)
	for i := range bins {
		bins[i] = int32(bin(rng))
	}
	return bins
}

// TestEncodeSymbolsRunPath counts the symbols the encoder codes one at a
// time from the table. On the cesm shape, where one 1-bit code carries 99%
// of the bins, the run path must take all but the symbols that end a run;
// a run path that is skipped sends every symbol through the table and
// fails here. Every shape must also decode back to its bins.
func TestEncodeSymbolsRunPath(t *testing.T) {
	const n = 1 << 18
	for _, sh := range decodeShapes {
		bins := shapeBins(1, n, sh.bin)
		c := Build(bins)
		w := bitio.NewWriter(0)
		slow, err := encodeSymbols(c, bins, w)
		c.Release()
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		got := make([]int32, n)
		if err := DecodeSymbols(c, got, bitio.NewReader(w.Bytes())); err != nil {
			t.Fatalf("%s: decode: %v", sh.name, err)
		}
		for i := range bins {
			if got[i] != bins[i] {
				t.Fatalf("%s: symbol %d: got %d want %d", sh.name, i, got[i], bins[i])
			}
		}
		if sh.name == "cesm" && slow > n*3/100 {
			t.Errorf("cesm: %d of %d symbols coded from the table, want at most 3%%", slow, n)
		}
	}
}

// refWordEncode is the reference encoder: one WriteBits per code, with
// canonical codes assigned from the code lengths alone.
func refWordEncode(c *Codec, symbols []uint32, w *bitio.Writer) error {
	lens := make(map[uint32]uint, len(c.syms))
	for i, s := range c.syms {
		lens[s] = uint(c.lens[i])
	}
	return refEncode(refCodes(lens), symbols, w)
}

// FuzzEncodeSymbols checks the word encoder against a one-code-per-WriteBits
// loop on random valid codes (1- and 2-bit shortest codes included), with
// the run path on or off, after a random number of bits already in the
// writer, for int32 and uint32 streams that may hold unknown symbols. The
// bytes written and the error must be identical.
func FuzzEncodeSymbols(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2}, []byte{0, 1, 2, 200, 3, 4, 5, 6, 7, 8, 9, 130}, uint8(2))
	f.Add([]byte{1, 1, 1, 1}, bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 140}, 20), uint8(7))
	f.Add([]byte{0, 7, 8, 9, 10, 11, 12, 13, 14, 14}, bytes.Repeat([]byte{5}, 300), uint8(6))
	f.Add([]byte{0, 1, 255, 254, 253, 252, 251}, []byte{0, 0, 255, 0, 254, 1}, uint8(131))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 9, 10, 11, 12, 13, 14, 15, 210, 230}, []byte("long codes past the word boundary"), uint8(253))
	f.Fuzz(func(t *testing.T, lens, data []byte, mode uint8) {
		parsed := fuzzCodec(t, lens, mode&1 != 0)
		if parsed == nil {
			return
		}
		// Re-derive the codec over a dense table, as Build gives it, and
		// pick the run path by mode rather than by frequencies.
		c := fromLengths(parsed.syms, parsed.lens, symhist.Count(parsed.syms))
		defer c.Release()
		c.runs = mode&2 != 0 && c.minLen <= runMaxLen
		// Bytes below 128 pick the zero code, so runs of it are common;
		// 254 and 255 pick symbols outside the alphabet on either side.
		syms := make([]uint32, len(data))
		for i, b := range data {
			switch {
			case b < 128:
				syms[i] = c.symsByCode[0]
			case b == 254:
				syms[i] = c.syms[0] - 1
			case b == 255:
				syms[i] = c.syms[len(c.syms)-1] + 1
			default:
				syms[i] = c.syms[int(b)%len(c.syms)]
			}
		}
		pre := uint(mode>>2) % 64 // bits in the writer before the codes
		ref := bitio.NewWriter(0)
		ref.WriteBits(0x5a5a5a5a5a5a5a5a, pre)
		werr := refWordEncode(c, syms, ref)
		want := ref.Bytes()
		ints := make([]int32, len(syms))
		for i, s := range syms {
			ints[i] = int32(s)
		}
		checkEncode(t, c, syms, pre, want, werr)
		checkEncode(t, c, ints, pre, want, werr)
	})
}

// checkEncode encodes symbols after pre bits into a fresh writer and
// compares the bytes and the error with the reference's.
func checkEncode[S symhist.Symbol](t *testing.T, c *Codec, symbols []S, pre uint, want []byte, werr error) {
	t.Helper()
	w := bitio.NewWriter(0)
	w.WriteBits(0x5a5a5a5a5a5a5a5a, pre)
	_, err := encodeSymbols(c, symbols, w)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%T: error %v, reference %v", symbols, err, werr)
	}
	if got := w.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%T (runs %v, %d bits before): %d bytes %x, reference %d bytes %x", symbols, c.runs, pre, len(got), got, len(want), want)
	}
}

// BenchmarkEncodeShapes runs AppendBlock (count, code build and bit
// packing) over 2^18 int32 bins of each decode shape, reporting the time
// per symbol.
func BenchmarkEncodeShapes(b *testing.B) {
	for _, sh := range decodeShapes {
		b.Run(sh.name, func(b *testing.B) {
			bins := shapeBins(1, 1<<18, sh.bin)
			dst := AppendBlock(nil, bins)
			b.SetBytes(int64(4 * len(bins)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = AppendBlock(dst[:0], bins)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(bins)), "ns/symbol")
		})
	}
}
