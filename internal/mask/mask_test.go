package mask

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"cliz/internal/grid"
)

func TestValidAndCount(t *testing.T) {
	m := New(2, 3, []int32{0, 1, -2, 0, 5, 0})
	if m.Valid(0, 0) || !m.Valid(0, 1) || !m.Valid(0, 2) {
		t.Fatal("validity wrong in row 0")
	}
	if m.Valid(1, 0) || !m.Valid(1, 1) || m.Valid(1, 2) {
		t.Fatal("validity wrong in row 1")
	}
	if m.ValidCount() != 3 {
		t.Fatalf("ValidCount = %d", m.ValidCount())
	}
}

func TestBools(t *testing.T) {
	m := New(1, 4, []int32{0, 2, -1, 0})
	want := []bool{false, true, true, false}
	if !reflect.DeepEqual(m.Bools(), want) {
		t.Fatalf("Bools = %v", m.Bools())
	}
}

func TestBroadcast(t *testing.T) {
	m := New(2, 2, []int32{1, 0, 0, 1})
	got, err := m.Broadcast([]int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("len = %d", len(got))
	}
	for l := 0; l < 3; l++ {
		off := l * 4
		if !got[off] || got[off+1] || got[off+2] || !got[off+3] {
			t.Fatalf("layer %d wrong: %v", l, got[off:off+4])
		}
	}
}

func TestBroadcast2D(t *testing.T) {
	m := New(2, 2, []int32{1, 1, 0, 1})
	got, err := m.Broadcast([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestFromFillValue(t *testing.T) {
	slice := []float32{1.5, 9.97e36, -2.0, float32(1e35)}
	m := FromFillValue(slice, 2, 2, 1e30)
	want := []bool{true, false, true, false}
	if !reflect.DeepEqual(m.Bools(), want) {
		t.Fatalf("got %v", m.Bools())
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nLat, nLon := 37, 53
	regions := make([]int32, nLat*nLon)
	for i := range regions {
		if rng.Float64() < 0.6 {
			regions[i] = int32(rng.Intn(5) + 1)
		}
	}
	m := New(nLat, nLon, regions)
	blob := m.Serialize()
	got, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.NLat != nLat || got.NLon != nLon {
		t.Fatalf("dims %dx%d", got.NLat, got.NLon)
	}
	if !reflect.DeepEqual(got.Bools(), m.Bools()) {
		t.Fatal("validity changed through serialization")
	}
}

func TestSerializeCompact(t *testing.T) {
	// A realistic coastline-ish mask should compress far below 1 bit/cell.
	nLat, nLon := 192, 160
	regions := make([]int32, nLat*nLon)
	for i := 0; i < nLat; i++ {
		for j := 0; j < nLon; j++ {
			if j > nLon/3 {
				regions[i*nLon+j] = 1
			}
		}
	}
	m := New(nLat, nLon, regions)
	blob := m.Serialize()
	if len(blob) > nLat*nLon/32 {
		t.Fatalf("mask blob too large: %d bytes for %d cells", len(blob), nLat*nLon)
	}
}

func TestParseCorrupt(t *testing.T) {
	truncated := New(2, 2, []int32{1, 1, 1, 1}).Serialize()[:9]
	for _, blob := range [][]byte{nil, {1, 2, 3}, make([]byte, 8), truncated} {
		if _, err := Parse(blob); err == nil {
			t.Fatalf("Parse(%v) should fail", blob)
		}
	}
}

// TestParseOverflowingExtents: two 32-bit extents whose product overflows
// int into a negative cell count must be rejected, not reach make().
func TestParseOverflowingExtents(t *testing.T) {
	blob := New(2, 2, []int32{1, 1, 1, 1}).Serialize()
	for _, ext := range [][2]uint32{{0xffffffff, 0xffffffff}, {0x80000000, 0x80000000}, {1 << 16, 1<<15 + 1}} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[0:], ext[0])
		binary.LittleEndian.PutUint32(bad[4:], ext[1])
		if _, err := Parse(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("extents %dx%d: error %v, want ErrCorrupt", ext[0], ext[1], err)
		}
	}
}

// TestBroadcastRank1 pins the satellite bugfix: a rank-1 dims vector used to
// index dims[len-2] and panic. A 1×n mask broadcasts onto a 1-D grid; any
// other rank-1 shape is a shape error, not a panic.
func TestBroadcastRank1(t *testing.T) {
	m := New(1, 3, []int32{1, 0, 1})
	got, err := m.Broadcast([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if _, err := m.Broadcast([]int{4}); err == nil {
		t.Fatal("mismatched 1-D extent accepted")
	}
}

func TestBroadcastShapeMismatch(t *testing.T) {
	m := New(2, 3, []int32{1, 1, 1, 0, 0, 0})
	cases := [][]int{
		nil,          // empty dims
		{},           // empty dims
		{5, 3, 2},    // trailing dims swapped
		{4, 2, 2},    // wrong lon extent
		{10, 3, 3},   // wrong lat extent
		{2, 2, 3, 2}, // 4-D with trailing dims swapped
	}
	for _, dims := range cases {
		if _, err := m.Broadcast(dims); err == nil {
			t.Fatalf("dims %v accepted by a 2x3 mask", dims)
		} else if !errors.Is(err, ErrShape) {
			t.Fatalf("dims %v: error %v does not wrap ErrShape", dims, err)
		}
	}
	if _, err := m.Broadcast([]int{7, 2, 3}); err != nil {
		t.Fatalf("matching dims rejected: %v", err)
	}
}

// TestPermutedMatchesTransposedBroadcast is the differential test of
// Permuted: for every permutation of ranks 1–4 (several shapes each, extent-1
// axes included) it must equal the transpose of a broadcast built cell by
// cell, and Broadcast must equal that broadcast.
func TestPermutedMatchesTransposedBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{
		{9}, {1},
		{5, 7}, {1, 6}, {6, 1},
		{4, 5, 6}, {3, 1, 7}, {1, 5, 4}, {6, 4, 1},
		{3, 4, 5, 6}, {2, 1, 3, 4}, {1, 3, 1, 5}, {2, 3, 4, 1},
	}
	for _, dims := range shapes {
		n := len(dims)
		nLat, nLon := 1, dims[n-1]
		if n >= 2 {
			nLat = dims[n-2]
		}
		regions := make([]int32, nLat*nLon)
		for i := range regions {
			regions[i] = int32(rng.Intn(3) - 1)
		}
		m := New(nLat, nLon, regions)
		plane := nLat * nLon
		want := make([]bool, grid.Volume(dims))
		for i := range want {
			want[i] = regions[i%plane] != 0
		}
		got, err := m.Broadcast(dims)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Broadcast differs from the cell-by-cell broadcast", dims)
		}
		for _, perm := range grid.Permutations(n) {
			ref, err := grid.TransposeWorkers(want, dims, perm, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Permuted(dims, perm)
			if err != nil {
				t.Fatalf("%v %v: %v", dims, perm, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%v %v: Permuted differs from the transposed broadcast", dims, perm)
			}
		}
	}
}

func TestPermutedBadShape(t *testing.T) {
	m := New(3, 4, make([]int32, 12))
	for _, tc := range []struct {
		dims, perm []int
	}{
		{nil, nil},
		{[]int{12}, []int{0}},            // rank 1 needs a 1×n map
		{[]int{5, 4, 3}, []int{0, 1, 2}}, // trailing dims swapped
		{[]int{5, 3, 4}, []int{0, 1}},    // short permutation
		{[]int{5, 3, 4}, []int{0, 1, 1}}, // not a bijection
		{[]int{5, 3, 4}, []int{0, 1, 3}}, // axis out of range
		{[]int{-2, 3, 4}, nil},           // negative extent
	} {
		if _, err := m.Permuted(tc.dims, tc.perm); !errors.Is(err, ErrShape) {
			t.Errorf("Permuted(%v, %v) error %v, want ErrShape", tc.dims, tc.perm, err)
		}
	}
	bad := New(3, 4, make([]int32, 11)) // fewer labels than cells
	if _, err := bad.Permuted([]int{2, 3, 4}, nil); !errors.Is(err, ErrShape) {
		t.Errorf("short region slice: error %v, want ErrShape", err)
	}
}
