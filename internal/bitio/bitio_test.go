package bitio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	type chunk struct {
		v uint64
		n uint
	}
	chunks := []chunk{
		{0x1, 1}, {0x3, 2}, {0xff, 8}, {0x12345, 20},
		{0xdeadbeefcafe, 48}, {^uint64(0), 64}, {0, 0}, {5, 3},
		{0xabcdef0123456789, 64}, {1, 64},
	}
	w := NewWriter(64)
	for _, c := range chunks {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for i, c := range chunks {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		want := c.v
		if c.n < 64 {
			want &= (1 << c.n) - 1
		}
		if got != want {
			t.Fatalf("chunk %d: got %#x want %#x", i, got, want)
		}
	}
}

func TestBitLen(t *testing.T) {
	w := NewWriter(0)
	if w.BitLen() != 0 {
		t.Fatalf("empty BitLen = %d", w.BitLen())
	}
	w.WriteBits(0x7, 3)
	if w.BitLen() != 3 {
		t.Fatalf("BitLen = %d want 3", w.BitLen())
	}
	w.WriteBits(0, 64)
	if w.BitLen() != 67 {
		t.Fatalf("BitLen = %d want 67", w.BitLen())
	}
}

func TestBytesPadsToByte(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x5, 3) // 101
	b := w.Bytes()
	if len(b) != 1 {
		t.Fatalf("len = %d", len(b))
	}
	if b[0] != 0xa0 { // 1010_0000
		t.Fatalf("padding wrong: %#x", b[0])
	}
}

func TestReaderOverrun(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrOverrun {
		t.Fatalf("want ErrOverrun, got %v", err)
	}
	r2 := NewReader(nil)
	if _, err := r2.ReadBits(1); err != ErrOverrun {
		t.Fatalf("want ErrOverrun, got %v", err)
	}
}

func TestReadBitsZero(t *testing.T) {
	r := NewReader(nil)
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("ReadBits(0) = %d, %v", v, err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xff, 8)
	w.Reset()
	w.WriteBits(0x1, 1)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0x80 {
		t.Fatalf("after reset got %v", b)
	}
}

func TestQuickRandomChunks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		vals := make([]uint64, n)
		bits := make([]uint, n)
		w := NewWriter(0)
		for i := range vals {
			bits[i] = uint(rng.Intn(64) + 1)
			vals[i] = rng.Uint64()
			if bits[i] < 64 {
				vals[i] &= (1 << bits[i]) - 1
			}
			w.WriteBits(vals[i], bits[i])
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			got, err := r.ReadBits(bits[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedBitAndBits(t *testing.T) {
	w := NewWriter(0)
	w.WriteBit(1)
	w.WriteBits(0x2a, 7)
	w.WriteBit(0)
	w.WriteBits(0xffff, 16)
	r := NewReader(w.Bytes())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("first bit")
	}
	if v, _ := r.ReadBits(7); v != 0x2a {
		t.Fatalf("7 bits: %#x", v)
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Fatal("ninth bit")
	}
	if v, _ := r.ReadBits(16); v != 0xffff {
		t.Fatal("16 bits")
	}
}

func TestBitsRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.BitsRemaining() != 24 {
		t.Fatalf("got %d", r.BitsRemaining())
	}
	_, _ = r.ReadBits(5)
	if r.BitsRemaining() != 19 {
		t.Fatalf("got %d", r.BitsRemaining())
	}
}

func TestPeekConsume(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b1011001110001111, 16)
	w.WriteBits(0xDEADBEEFCAFE, 48)
	buf := w.Bytes()

	r := NewReader(buf)
	v, avail := r.Peek(16)
	if avail != 16 || v != 0b1011001110001111 {
		t.Fatalf("peek 16: got %b avail=%d", v, avail)
	}
	// Peek must not consume.
	v2, avail2 := r.Peek(16)
	if v2 != v || avail2 != avail {
		t.Fatalf("second peek differs: %b/%d vs %b/%d", v2, avail2, v, avail)
	}
	if err := r.Consume(3); err != nil {
		t.Fatal(err)
	}
	v, avail = r.Peek(13)
	if avail != 13 || v != 0b1001110001111 {
		t.Fatalf("peek after consume: got %b avail=%d", v, avail)
	}
	if err := r.Consume(13); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBits(48)
	if err != nil || got != 0xDEADBEEFCAFE {
		t.Fatalf("ReadBits after peek/consume: got %x err=%v", got, err)
	}
}

// TestPeekMasksStaleBits pins the accumulator subtlety: after partial reads
// the high bits of the accumulator still hold already-consumed data, and
// Peek must mask them out rather than leak them into the returned window.
func TestPeekMasksStaleBits(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFFFF, 16) // consumed bits are all ones: leaks are visible
	w.WriteBits(0x0000, 16)
	buf := w.Bytes()
	r := NewReader(buf)
	if _, err := r.ReadBits(16); err != nil {
		t.Fatal(err)
	}
	v, avail := r.Peek(16)
	if avail != 16 || v != 0 {
		t.Fatalf("stale bits leaked into peek: got %b avail=%d", v, avail)
	}
}

func TestPeekShortStream(t *testing.T) {
	r := NewReader([]byte{0b10110000})
	v, avail := r.Peek(12)
	if avail != 8 {
		t.Fatalf("avail=%d, want 8", avail)
	}
	// The 8 real bits sit in the top of the 12-bit window, zero-padded.
	if v != 0b101100000000 {
		t.Fatalf("short peek: got %012b", v)
	}
	if err := r.Consume(8); err != nil {
		t.Fatal(err)
	}
	if _, avail := r.Peek(4); avail != 0 {
		t.Fatalf("peek at EOF: avail=%d, want 0", avail)
	}
}

func TestPeekBadCounts(t *testing.T) {
	r := NewReader([]byte{0xAB, 0xCD})
	if _, avail := r.Peek(0); avail != 0 {
		t.Fatal("Peek(0) must report no bits")
	}
	if _, avail := r.Peek(57); avail != 0 {
		t.Fatal("Peek beyond 56 must report no bits")
	}
}

func TestConsumeOverrun(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, avail := r.Peek(8); avail != 8 {
		t.Fatal("expected 8 bits available")
	}
	if err := r.Consume(9); !errors.Is(err, ErrOverrun) {
		t.Fatalf("over-consume: got %v, want ErrOverrun", err)
	}
	if err := r.Consume(8); err != nil {
		t.Fatalf("exact consume failed: %v", err)
	}
}

// TestPeekConsumeInterleavedWithReads drives a randomized mixed workload of
// Peek/Consume/ReadBit/ReadBits against a pure-ReadBits oracle.
func TestPeekConsumeInterleavedWithReads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := make([]byte, 512)
	rng.Read(data)
	r := NewReader(data)
	oracle := NewReader(data)
	for r.BitsRemaining() > 64 {
		n := uint(1 + rng.Intn(24))
		want, err := oracle.ReadBits(n)
		if err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(3) {
		case 0:
			v, avail := r.Peek(n)
			if avail != n || v != want {
				t.Fatalf("peek %d: got %x/%d want %x", n, v, avail, want)
			}
			if err := r.Consume(n); err != nil {
				t.Fatal(err)
			}
		case 1:
			v, err := r.ReadBits(n)
			if err != nil || v != want {
				t.Fatalf("readbits %d: got %x err=%v want %x", n, v, err, want)
			}
		case 2:
			var v uint64
			for i := uint(0); i < n; i++ {
				b, err := r.ReadBit()
				if err != nil {
					t.Fatal(err)
				}
				v = v<<1 | uint64(b)
			}
			if v != want {
				t.Fatalf("readbit %d: got %x want %x", n, v, want)
			}
		}
	}
}

// TestPeekWindowsToEnd walks buffers of 0–24 bytes, each read as a run of
// 56-bit peeks and consumes of 1–56 bits, against the bits of the buffer
// itself. It covers the word refill at every distance from the end of the
// input, the switch to single bytes for the last 7 and the zero padding of
// a short window.
func TestPeekWindowsToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for size := 0; size <= 24; size++ {
		buf := make([]byte, size)
		rng.Read(buf)
		bit := func(i int) uint64 {
			if i >= 8*size {
				return 0
			}
			return uint64(buf[i/8]>>(7-i%8)) & 1
		}
		for trial := 0; trial < 20; trial++ {
			r := NewReader(buf)
			for pos := 0; ; {
				v, avail := r.Peek(56)
				if want := uint(min(56, 8*size-pos)); avail != want {
					t.Fatalf("size %d at bit %d: avail %d, want %d", size, pos, avail, want)
				}
				var want uint64
				for i := 0; i < 56; i++ {
					want = want<<1 | bit(pos+i)
				}
				if v != want {
					t.Fatalf("size %d at bit %d: peek %014x, want %014x", size, pos, v, want)
				}
				if avail == 0 {
					break
				}
				n := uint(1 + rng.Intn(int(avail)))
				if err := r.Consume(n); err != nil {
					t.Fatal(err)
				}
				pos += int(n)
				if got := r.BitsRemaining(); got != 8*size-pos {
					t.Fatalf("size %d at bit %d: %d bits remaining", size, pos, got)
				}
			}
		}
	}
}

// TestWordsHandoff packs whole words outside the writer between WriteBits
// calls and checks the stream against WriteBits alone.
func TestWordsHandoff(t *testing.T) {
	for pre := uint(0); pre < 64; pre += 7 {
		ref := NewWriter(0)
		ref.WriteBits(0x123456789abcdef, pre)
		w := NewWriter(0)
		w.WriteBits(0x123456789abcdef, pre)

		// The caller's accumulator holds pre bits; add 64 bits of v, store
		// the full word big-endian, keep the rest pending.
		const v uint64 = 0xfedcba9876543210
		ref.WriteBits(v, 64)
		buf, cur, n := w.Words()
		if n != pre {
			t.Fatalf("pre=%d: Words reports %d pending bits", pre, n)
		}
		word := v >> pre
		if pre > 0 {
			word |= cur << (64 - pre)
		}
		buf = append(buf, byte(word>>56), byte(word>>48), byte(word>>40), byte(word>>32),
			byte(word>>24), byte(word>>16), byte(word>>8), byte(word))
		w.SetWords(buf, v, n) // the low n bits of v are pending; the rest are ignored
		ref.WriteBits(5, 3)
		w.WriteBits(5, 3)
		if got, want := w.Bytes(), ref.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("pre=%d: %x, WriteBits alone %x", pre, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetWords accepted 64 pending bits")
		}
	}()
	NewWriter(0).SetWords(nil, 0, 64)
}
