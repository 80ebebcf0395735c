package huffman

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cliz/internal/bitio"
)

func TestRoundTripSimple(t *testing.T) {
	syms := []uint32{1, 1, 1, 2, 2, 3, 7, 7, 7, 7, 7}
	c := Build(syms)
	w := bitio.NewWriter(8)
	if err := c.Encode(syms, w); err != nil {
		t.Fatal(err)
	}
	r := bitio.NewReader(w.Bytes())
	got, err := c.Decode(len(syms), r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatalf("got %v want %v", got, syms)
	}
}

func TestSingleSymbolAlphabet(t *testing.T) {
	syms := []uint32{42, 42, 42}
	c := Build(syms)
	w := bitio.NewWriter(1)
	if err := c.Encode(syms, w); err != nil {
		t.Fatal(err)
	}
	r := bitio.NewReader(w.Bytes())
	got, err := c.Decode(3, r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatalf("got %v", got)
	}
}

func TestEmptyAlphabet(t *testing.T) {
	c := Build[uint32](nil)
	if c.Alphabet() != 0 {
		t.Fatal("empty alphabet expected")
	}
	r := bitio.NewReader([]byte{0xff})
	if _, err := c.DecodeOne(r); err == nil {
		t.Fatal("decoding from empty alphabet should fail")
	}
}

func TestUnknownSymbol(t *testing.T) {
	c := Build([]uint32{1, 2})
	w := bitio.NewWriter(1)
	if err := c.Encode([]uint32{3}, w); err == nil {
		t.Fatal("expected error for unknown symbol")
	}
}

func TestOptimalityOnSkewedInput(t *testing.T) {
	// A very frequent symbol must get a shorter code than a rare one.
	f := map[uint32]uint64{0: 1000, 1: 1, 2: 1, 3: 1}
	c := codecFromFreqs(f)
	if c.CodeLen(0) >= c.CodeLen(1) {
		t.Fatalf("frequent symbol len %d >= rare %d", c.CodeLen(0), c.CodeLen(1))
	}
}

func TestKraftInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := map[uint32]uint64{}
	for i := 0; i < 300; i++ {
		f[uint32(rng.Intn(1000))] = uint64(rng.Intn(10000) + 1)
	}
	c := codecFromFreqs(f)
	sum := 0.0
	for s := range f {
		l := c.CodeLen(s)
		if l == 0 || l > MaxCodeLen {
			t.Fatalf("bad length %d for %d", l, s)
		}
		sum += 1 / float64(uint64(1)<<l)
	}
	if sum > 1.0000001 {
		t.Fatalf("Kraft sum %.9f > 1: not prefix-free", sum)
	}
}

func TestLengthLimiting(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; the limiter must cap them.
	f := map[uint32]uint64{}
	a, b := uint64(1), uint64(1)
	for i := uint32(0); i < 80; i++ {
		f[i] = a
		a, b = b, a+b
		if a > 1<<55 {
			break
		}
	}
	c := codecFromFreqs(f)
	for s := range f {
		if l := c.CodeLen(s); l > MaxCodeLen {
			t.Fatalf("code length %d exceeds limit", l)
		}
	}
	// Still decodable round-trip.
	syms := make([]uint32, 0, len(f))
	for s := range f {
		syms = append(syms, s)
	}
	w := bitio.NewWriter(64)
	if err := c.Encode(syms, w); err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(len(syms), bitio.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatal("round trip failed after limiting")
	}
}

func TestTableSerializationRoundTrip(t *testing.T) {
	syms := []uint32{5, 5, 5, 100, 100, 70000, 70000, 70000, 70000, 9}
	c := Build(syms)
	blob := c.SerializeTable(nil)
	c2, n, err := ParseTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Fatalf("consumed %d of %d", n, len(blob))
	}
	// Same code lengths → same canonical codes.
	for _, s := range []uint32{5, 100, 70000, 9} {
		if c.CodeLen(s) != c2.CodeLen(s) {
			t.Fatalf("sym %d: len %d vs %d", s, c.CodeLen(s), c2.CodeLen(s))
		}
	}
	// Cross decode: encode with c, decode with c2.
	w := bitio.NewWriter(8)
	if err := c.Encode(syms, w); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Decode(len(syms), bitio.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatal("cross decode failed")
	}
}

func TestParseTableCorrupt(t *testing.T) {
	for _, blob := range [][]byte{
		nil,
		{0xff},
		{2, 1, 0},   // zero length code
		{2, 1, 200}, // absurd length
		{5, 1, 3},   // count larger than data
	} {
		if _, _, err := ParseTable(blob); err == nil {
			t.Fatalf("ParseTable(%v) should fail", blob)
		}
	}
}

func TestEncodeDecodeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	syms := make([]uint32, 5000)
	for i := range syms {
		// zipf-ish distribution around 32768 like quantization bins
		syms[i] = uint32(32768 + rng.NormFloat64()*3)
	}
	blob := EncodeBlock(syms)
	got, n, err := DecodeBlock(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Fatalf("consumed %d of %d", n, len(blob))
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatal("block round trip failed")
	}
	if len(blob) >= 2*len(syms) {
		t.Fatalf("no compression achieved: %d bytes for %d syms", len(blob), len(syms))
	}
}

func TestEncodeBlockEmpty(t *testing.T) {
	blob := EncodeBlock(nil)
	got, _, err := DecodeBlock(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestDecodeBlockCorrupt(t *testing.T) {
	blob := EncodeBlock([]uint32{1, 2, 3, 1, 2, 3})
	for cut := 1; cut < len(blob); cut += 3 {
		if _, _, err := DecodeBlock(blob[:cut]); err == nil {
			// Truncations that leave a valid prefix of fewer symbols are
			// impossible because the count is stored; all cuts must fail.
			t.Fatalf("truncated blob (cut %d) decoded without error", cut)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000) + 1
		alpha := rng.Intn(200) + 1
		syms := make([]uint32, n)
		for i := range syms {
			syms[i] = uint32(rng.Intn(alpha))
		}
		blob := EncodeBlock(syms)
		got, _, err := DecodeBlock(blob)
		return err == nil && reflect.DeepEqual(got, syms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	syms := []uint32{1, 2, 2, 3, 3, 3, 4, 4, 4, 4}
	a := EncodeBlock(syms)
	b := EncodeBlock(syms)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDeterminismAcrossMapOrders(t *testing.T) {
	// Many symbols with identical frequencies maximize heap ties — the
	// regression that once made SZ3 output flip between runs.
	syms := make([]uint32, 0, 4096)
	for s := uint32(0); s < 512; s++ {
		for k := 0; k < 3; k++ {
			syms = append(syms, s)
		}
	}
	want := EncodeBlock(syms)
	for i := 0; i < 10; i++ {
		got := EncodeBlock(syms)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d produced different bytes", i)
		}
	}
}

// codecFromFreqs builds a codec straight from a frequency table, for cases
// (such as the length limiter) whose counts no symbol slice could reach.
// Zero frequencies are ignored.
func codecFromFreqs(f map[uint32]uint64) *Codec {
	syms := make([]uint32, 0, len(f))
	for s, c := range f {
		if c > 0 {
			syms = append(syms, s)
		}
	}
	slices.Sort(syms)
	freqs := make([]uint64, len(syms))
	for i, s := range syms {
		freqs[i] = f[s]
	}
	return fromLengths(syms, buildLengths(freqs), nil)
}
