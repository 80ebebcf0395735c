package symhist

import (
	"math/rand"
	"slices"
	"testing"
)

// mapCount is the plain reference: distinct symbols ascending with counts.
func mapCount(symbols []uint32) ([]uint32, []uint64) {
	m := map[uint32]uint64{}
	for _, s := range symbols {
		m[s]++
	}
	syms := make([]uint32, 0, len(m))
	for s := range m {
		syms = append(syms, s)
	}
	slices.Sort(syms)
	freqs := make([]uint64, len(syms))
	for i, s := range syms {
		freqs[i] = m[s]
	}
	return syms, freqs
}

func TestCountMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name   string
		n      int
		lo     uint32
		span   uint64
		dense  bool
		escape bool
	}{
		{"empty", 0, 0, 1, false, false},
		{"one", 1, 7, 1, true, false},
		{"radius-escapes", 50000, 32700, 140, true, true},
		{"at-cap", 5000, 100, MaxSpan, true, false},
		{"past-cap", 5000, 100, MaxSpan + 1, false, false},
		{"too-sparse", 10, 0, 33000, false, false},
		{"full-range", 3000, 0, 1 << 32, false, false},
		{"top", 3000, 1<<32 - 300, 300, true, false},
		{"lanes", 40003, 32760, 40, true, false},
		{"lanes-top", 4097, 1<<32 - 64, 64, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			syms := make([]uint32, tc.n)
			for i := range syms {
				syms[i] = tc.lo + uint32(rng.Int63n(int64(tc.span)))
				if tc.escape && i%50 == 0 {
					syms[i] = 0
				}
			}
			if tc.n >= 2 && tc.span > 1 && !tc.escape {
				syms[0], syms[1] = tc.lo, uint32(uint64(tc.lo)+tc.span-1)
			}
			h := Count(syms)
			defer h.Release()
			if _, tab := h.Dense(); (tab != nil) != tc.dense {
				t.Fatalf("dense path %v, want %v", tab != nil, tc.dense)
			}
			wantSyms, wantFreqs := mapCount(syms)
			if !slices.Equal(h.Syms, wantSyms) || !slices.Equal(h.Freqs, wantFreqs) {
				t.Fatal("counts differ from the map reference")
			}
			for i, s := range h.Syms {
				if h.Get(s) != 0 {
					t.Fatalf("slot of %d not zeroed", s)
				}
				h.Set(i, uint64(i)+1)
			}
			for i, s := range h.Syms {
				if got := h.Get(s); got != uint64(i)+1 {
					t.Fatalf("Get(%d) = %d, want %d", s, got, i+1)
				}
			}
			for _, s := range []uint32{tc.lo - 1, tc.lo + 1, 1<<32 - 1, 0, 32768} {
				if _, found := slices.BinarySearch(h.Syms, s); !found && h.Get(s) != 0 {
					t.Fatalf("absent symbol %d has a slot", s)
				}
			}
		})
	}
}

func TestReleaseRecyclesCleanly(t *testing.T) {
	a := Count([]uint32{5, 5, 9, 40})
	if _, tab := a.Dense(); tab == nil {
		t.Fatal("fixture should take the dense path")
	}
	for i := range a.Syms {
		a.Set(i, 77)
	}
	a.Release()
	if a.Get(5) != 0 {
		t.Fatal("Get after Release still reads the pooled array")
	}
	if len(a.Syms) != 3 || a.Freqs[0] != 2 {
		t.Fatal("Release dropped Syms/Freqs")
	}
	// A recycled array must come back zeroed for the next block.
	b := Count([]uint32{9, 40, 40, 6})
	defer b.Release()
	if b.Get(9) != 0 || b.Get(5) != 0 || !slices.Equal(b.Freqs, []uint64{1, 1, 2}) {
		t.Fatal("recycled array leaked the previous block's slots")
	}
}

func TestSorted(t *testing.T) {
	h := Sorted([]uint32{3, 70000, 1 << 31})
	h.Set(1, 9)
	if h.Get(70000) != 9 || h.Get(3) != 0 || h.Get(4) != 0 {
		t.Fatal("Sorted lookup wrong")
	}
}

// TestCountLanes checks the interleaved lane counters against one plain
// table, on a block that falls almost entirely on one slot and on every
// tail length past the last group of four.
func TestCountLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const lo, span = 32700, 140
	for n := 0; n < 2000; n += 397 {
		for tail := range lanes {
			syms := make([]int32, n+tail)
			for i := range syms {
				syms[i] = 32768
				if rng.Intn(100) == 0 {
					syms[i] = lo + int32(rng.Intn(span))
				}
			}
			want := make([]uint64, span)
			for _, s := range syms {
				want[s-lo]++
			}
			d := make([]uint64, lanes*span)
			for i := range d {
				d[i] = 7 // stale counts from an earlier block
			}
			if got := countLanes(d, syms, lo); !slices.Equal(got, want) {
				t.Fatalf("n=%d: lane counts differ from one table", len(syms))
			}
		}
	}
}

// TestInLanes pins the lane rule to the block alone: at least
// minSymsPerLaneSlot symbols per slot and a span whose lanes fit minBuf,
// whatever size an earlier block left the pooled array.
func TestInLanes(t *testing.T) {
	for _, tc := range []struct {
		n, span uint64
		want    bool
	}{
		{16, 1, true},
		{15, 1, false},
		{16 * 1024, 1024, true},
		{16*1024 - 1, 1024, false},
		{1 << 20, 1025, false},
		{1 << 24, 32800, false},
	} {
		if got := inLanes(tc.n, tc.span); got != tc.want {
			t.Errorf("inLanes(%d, %d) = %v, want %v", tc.n, tc.span, got, tc.want)
		}
	}
}
