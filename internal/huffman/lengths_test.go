package huffman

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refLengthsDense runs the heap reference of reference_test.go over a dense
// frequency vector (every entry nonzero, index = symbol) and returns the
// lengths in index order.
func refLengthsDense(freqs []uint64) []uint8 {
	m := make(map[uint32]uint64, len(freqs))
	for i, f := range freqs {
		m[uint32(i)] = f
	}
	lens := refBuildLengths(m)
	out := make([]uint8, len(freqs))
	for s, l := range lens {
		out[s] = uint8(l)
	}
	return out
}

// refHuffLengthsDense is refLengthsDense without the length limiter:
// the raw tree depths, saturated at 255 as huffLengths stores them.
func refHuffLengthsDense(freqs []uint64) []uint8 {
	m := make(map[uint32]uint64, len(freqs))
	for i, f := range freqs {
		m[uint32(i)] = f
	}
	out := make([]uint8, len(freqs))
	for s, l := range refHuffLengths(m) {
		out[s] = uint8(min(l, 255))
	}
	return out
}

func checkLengthsMatchReference(t *testing.T, name string, freqs []uint64) {
	t.Helper()
	got := make([]uint8, len(freqs))
	huffLengths(freqs, got)
	if want := refHuffLengthsDense(freqs); !slices.Equal(got, want) {
		t.Fatalf("%s: huffLengths differs from the heap reference", name)
	}
	if got, want := buildLengths(freqs), refLengthsDense(freqs); !slices.Equal(got, want) {
		t.Fatalf("%s: buildLengths differs from the heap reference", name)
	}
}

// TestLengthsMatchHeapReference holds the two-queue code-length build to
// the container/heap build it replaced, on the shapes that stress its tie
// order and the length limiter.
func TestLengthsMatchHeapReference(t *testing.T) {
	equal := make([]uint64, 1000)
	for i := range equal {
		equal[i] = 7
	}
	var fib []uint64
	a, b := uint64(1), uint64(1)
	for i := 0; i < 80 && a <= 1<<55; i++ {
		fib = append(fib, a)
		a, b = b, a+b
	}
	// Reversed, so ascending symbol order is not ascending frequency.
	fibRev := slices.Clone(fib)
	slices.Reverse(fibRev)
	dense := make([]uint64, 65536)
	rng := rand.New(rand.NewSource(3))
	for i := range dense {
		dense[i] = 1 + uint64(rng.Intn(4))
	}
	cases := []struct {
		name  string
		freqs []uint64
	}{
		{"one", []uint64{5}},
		{"two", []uint64{9, 2}},
		{"two-equal", []uint64{4, 4}},
		{"equal", equal},
		{"fibonacci", fib},
		{"fibonacci-reversed", fibRev},
		{"dense-65536", dense},
		// Too large to pack beside a symbol index: the comparator sort.
		{"huge", []uint64{1 << 62, 3, 1 << 61, 3, 1}},
	}
	for _, c := range cases {
		checkLengthsMatchReference(t, c.name, c.freqs)
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		freqs := make([]uint64, n)
		spread := 1 + rng.Intn(50)
		for i := range freqs {
			switch trial % 3 {
			case 0: // few distinct values: many ties
				freqs[i] = 1 + uint64(rng.Intn(spread))
			case 1: // geometric skew
				freqs[i] = 1 + uint64(math.Exp(rng.Float64()*20))
			default: // wide uniform
				freqs[i] = 1 + uint64(rng.Int63n(1<<40))
			}
		}
		checkLengthsMatchReference(t, "random", freqs)
	}
}

// FuzzHuffLengths compares huffLengths and buildLengths with the heap
// reference on arbitrary frequency vectors. Each 8-byte group of the input
// is one frequency; a frequency of zero is raised to one, as symhist never
// reports an absent symbol.
func FuzzHuffLengths(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 0, 8*80)
	a, b := uint64(1), uint64(1)
	for i := 0; i < 70; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, a<<11)
		a, b = b, a+b
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 || n > 256 {
			return
		}
		freqs := make([]uint64, n)
		for i := range freqs {
			// Below 2^53, so no sum over 256 symbols overflows.
			freqs[i] = max(binary.LittleEndian.Uint64(data[8*i:])>>11, 1)
		}
		checkLengthsMatchReference(t, "fuzz", freqs)
	})
}

// laplaceSyms draws n Laplacian quantizer bins of scale s around the
// default radius.
func laplaceSyms(seed int64, n int, s float64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	for i := range out {
		v := rng.ExpFloat64() * s
		if rng.Intn(2) == 0 {
			v = -v
		}
		out[i] = uint32(32768 + int(math.Round(v)))
	}
	return out
}

// BenchmarkBuild times counting and code construction on a full-field-sized
// and a tuner-sample-sized quantizer stream.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"390k", 390000}, {"16k", 16000}} {
		syms := laplaceSyms(1, bc.n, 200)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(syms).Release()
			}
		})
	}
}
