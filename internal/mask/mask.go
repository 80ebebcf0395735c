// Package mask models the mask-map of climate datasets (paper §V-A).
//
// CESM-style files mark missing/invalid grid points (e.g. land cells in an
// ocean field) with huge fill values, and ship an integer mask map over the
// horizontal (lat, lon) grid: 0 means invalid, positive integers label ocean
// basins, negative integers label inland water bodies. The mask applies to
// every level/timestep of a field, so it is stored once per horizontal grid
// and broadcast across the leading dimension.
package mask

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cliz/internal/grid"
	"cliz/internal/lossless"
)

// ErrCorrupt reports a malformed serialized mask.
var ErrCorrupt = errors.New("mask: corrupt serialized mask")

// ErrShape reports a broadcast target whose dims do not fit the mask grid.
var ErrShape = errors.New("mask: dims do not match mask shape")

// Map is a horizontal mask over an nLat×nLon grid.
type Map struct {
	NLat, NLon int
	// Regions holds the raw region labels (0 = invalid). Length NLat*NLon.
	Regions []int32
}

// New builds a Map from region labels.
func New(nLat, nLon int, regions []int32) *Map {
	return &Map{NLat: nLat, NLon: nLon, Regions: regions}
}

// Valid reports whether the horizontal cell (lat, lon) holds real data.
func (m *Map) Valid(lat, lon int) bool {
	return m.Regions[lat*m.NLon+lon] != 0
}

// ValidCount returns the number of valid horizontal cells.
func (m *Map) ValidCount() int {
	n := 0
	for _, r := range m.Regions {
		if r != 0 {
			n++
		}
	}
	return n
}

// Bools returns the validity bitmap as a []bool of length NLat*NLon.
func (m *Map) Bools() []bool {
	out := make([]bool, len(m.Regions))
	for i, r := range m.Regions {
		out[i] = r != 0
	}
	return out
}

// Broadcast expands the horizontal validity to a full grid of the given dims,
// whose trailing two dimensions must equal (NLat, NLon); every leading index
// shares the same horizontal mask. A 1-D grid broadcasts a 1×n mask. Dims
// that do not fit the mask grid return ErrShape instead of panicking. It is
// Permuted under the identity permutation.
func (m *Map) Broadcast(dims []int) ([]bool, error) {
	return m.Permuted(dims, nil)
}

// Permuted returns the per-point validity of a grid of the given dims in
// the logical order of the permutation perm — logical axis i is axis
// perm[i] of dims, and nil is the identity — which is what transposing
// Broadcast(dims) by perm yields. It is written straight from the map a
// row (innermost logical axis) at a time: a row along the lon (or lat)
// axis is a copy of a map row (or of a row of the transposed map), a row
// along a leading axis repeats one cell, and the rows that cover the map
// once repeat over the logical axes in front of both map axes. Dims that do
// not fit the map and permutations that are not a bijection of the axes
// return ErrShape.
func (m *Map) Permuted(dims, perm []int) ([]bool, error) {
	n := len(dims)
	if n == 0 {
		return nil, fmt.Errorf("mask: broadcast to empty dims: %w", ErrShape)
	}
	if n == 1 {
		if m.NLat != 1 || m.NLon != dims[0] {
			return nil, fmt.Errorf("mask: %dx%d mask does not fit 1-D grid of %d: %w",
				m.NLat, m.NLon, dims[0], ErrShape)
		}
	} else if dims[n-2] != m.NLat || dims[n-1] != m.NLon {
		return nil, fmt.Errorf("mask: %dx%d mask does not fit trailing dims of %v: %w",
			m.NLat, m.NLon, dims, ErrShape)
	}
	if len(m.Regions) != m.NLat*m.NLon {
		return nil, fmt.Errorf("mask: %d region labels for a %dx%d mask: %w",
			len(m.Regions), m.NLat, m.NLon, ErrShape)
	}
	vol := 1
	for _, d := range dims {
		if d < 0 {
			return nil, fmt.Errorf("mask: negative extent in %v: %w", dims, ErrShape)
		}
		vol *= d
	}
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	} else if !grid.ValidPerm(perm, n) {
		return nil, fmt.Errorf("mask: invalid permutation %v for %d dims: %w", perm, n, ErrShape)
	}
	out := make([]bool, vol)
	if vol == 0 {
		return out, nil
	}
	src := m.Bools()
	if n == 1 {
		copy(out, src)
		return out, nil
	}
	// first and second are the logical positions of the two map axes in
	// logical order; src is the map laid out in that order, cols wide.
	first, second := -1, -1
	for i, p := range perm {
		if p >= n-2 {
			if first < 0 {
				first = i
			} else {
				second = i
			}
		}
	}
	cols := m.NLon
	if perm[first] == n-1 {
		// lon precedes lat: lay the map out lon-major.
		t, err := grid.Transpose(src, []int{m.NLat, m.NLon}, []int{1, 0})
		if err != nil {
			return nil, err
		}
		src, cols = t, m.NLat
	}
	tdims := grid.PermuteDims(dims, perm)
	// The logical axes in front of first do not index the map, so the
	// block over axes first..n-1 repeats along them.
	block := grid.Volume(tdims[first:])
	rowLen := tdims[n-1]
	co := make([]int, n)
	for off := 0; off < block; off += rowLen {
		row := out[off : off+rowLen]
		cell := co[first] * cols
		if second == n-1 {
			copy(row, src[cell:cell+cols])
		} else if src[cell+co[second]] {
			for i := range row {
				row[i] = true
			}
		}
		for ax := n - 2; ax >= first; ax-- {
			co[ax]++
			if co[ax] < tdims[ax] {
				break
			}
			co[ax] = 0
		}
	}
	for done := block; done < vol; {
		done += copy(out[done:], out[:done])
	}
	return out, nil
}

// FromFillValue derives a mask by scanning one horizontal slice of data for
// the dataset's fill value (CESM writes values around 1e35–1e36 for missing
// points). Points whose magnitude reaches threshold are invalid.
func FromFillValue(slice []float32, nLat, nLon int, threshold float64) *Map {
	regions := make([]int32, nLat*nLon)
	for i, v := range slice {
		f := float64(v)
		if math.IsNaN(f) || math.Abs(f) >= threshold {
			regions[i] = 0
		} else {
			regions[i] = 1
		}
	}
	return &Map{NLat: nLat, NLon: nLon, Regions: regions}
}

// Serialize encodes the validity bitmap (1 bit per cell) and compresses it;
// region labels beyond valid/invalid are not needed for compression and are
// dropped, matching how CliZ consumes the mask.
func (m *Map) Serialize() []byte {
	nb := (len(m.Regions) + 7) / 8
	bits := make([]byte, nb)
	for i, r := range m.Regions {
		if r != 0 {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	payload := lossless.Encode(lossless.Flate{Level: 6}, bits)
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(m.NLat))
	binary.LittleEndian.PutUint32(out[4:], uint32(m.NLon))
	return append(out, payload...)
}

// Parse decodes a mask produced by Serialize.
func Parse(src []byte) (*Map, error) {
	if len(src) < 8 {
		return nil, ErrCorrupt
	}
	nLat := int(binary.LittleEndian.Uint32(src[0:]))
	nLon := int(binary.LittleEndian.Uint32(src[4:]))
	// Divide rather than multiply: two 32-bit extents can overflow the
	// product past the cap into a negative count.
	if nLat <= 0 || nLon <= 0 || nLat > (1<<31)/nLon {
		return nil, ErrCorrupt
	}
	bits, err := lossless.Decode(src[8:])
	if err != nil {
		return nil, err
	}
	n := nLat * nLon
	if len(bits) < (n+7)/8 {
		return nil, ErrCorrupt
	}
	regions := make([]int32, n)
	for i := 0; i < n; i++ {
		if bits[i/8]&(1<<(i%8)) != 0 {
			regions[i] = 1
		}
	}
	return &Map{NLat: nLat, NLon: nLon, Regions: regions}, nil
}
