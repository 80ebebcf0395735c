// Package zfp reimplements the ZFP fixed-accuracy compressor (Lindstrom,
// TVCG 2014), the transform-based baseline of the paper's evaluation.
//
// The codec follows the original design: data is partitioned into 4^d
// blocks; each block is aligned to a common exponent and promoted to 30-bit
// fixed point; the ZFP non-orthogonal lifted transform decorrelates each
// dimension; coefficients are reordered by total sequency, mapped to
// negabinary, and bit planes are coded MSB-first with the group-testing
// (unary run-length) coder. Fixed-accuracy mode codes
// max(0, emax − ⌊log₂ tol⌋ + 2(d+1)) planes per block.
//
// Ranks 1–3 are coded natively; 4D datasets are compressed as independent
// 3D slabs along the leading dimension (standard ZFP practice).
//
// Fill values (huge sentinels) blow up the block exponent and force
// near-lossless coding of coastal blocks — faithfully reproducing why
// transform coders struggle on masked climate fields (paper §V-A).
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"cliz/internal/bitio"
	"cliz/internal/codec"
	"cliz/internal/dataset"
)

const (
	magic    = "ZFP1"
	intprec  = 32 // bit planes per coefficient
	guardExp = 30 // fixed-point scaling exponent (2 guard bits)
)

// ErrCorrupt reports a malformed ZFP blob.
var ErrCorrupt = errors.New("zfp: corrupt blob")

// Compressor implements codec.Compressor.
type Compressor struct{}

func init() { codec.Register(Compressor{}) }

// Name implements codec.Compressor.
func (Compressor) Name() string { return "ZFP" }

// sequency caches the per-rank coefficient orderings (total sequency:
// ascending sum of the 4-ary digits, ties by index — ZFP's zigzag analogue).
var sequency [4][]int

func init() {
	for r := 1; r <= 3; r++ {
		n := 1 << (2 * r) // 4^r
		ord := make([]int, n)
		for i := range ord {
			ord[i] = i
		}
		digitSum := func(i int) int {
			s := 0
			for k := 0; k < r; k++ {
				s += i & 3
				i >>= 2
			}
			return s
		}
		sort.SliceStable(ord, func(a, b int) bool {
			da, db := digitSum(ord[a]), digitSum(ord[b])
			if da != db {
				return da < db
			}
			return ord[a] < ord[b]
		})
		sequency[r-1] = ord
	}
}

// fwdLift is ZFP's forward lifting step on four values at stride s.
func fwdLift(p []int32, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// invLift is the matching inverse.
func invLift(p []int32, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// fwdXform transforms a 4^rank block in place.
func fwdXform(blk []int32, rank int) {
	switch rank {
	case 1:
		fwdLift(blk, 0, 1)
	case 2:
		for y := 0; y < 4; y++ { // along x
			fwdLift(blk, 4*y, 1)
		}
		for x := 0; x < 4; x++ { // along y
			fwdLift(blk, x, 4)
		}
	case 3:
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				fwdLift(blk, 16*z+4*y, 1)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				fwdLift(blk, 16*z+x, 4)
			}
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				fwdLift(blk, 4*y+x, 16)
			}
		}
	}
}

func invXform(blk []int32, rank int) {
	switch rank {
	case 1:
		invLift(blk, 0, 1)
	case 2:
		for x := 0; x < 4; x++ {
			invLift(blk, x, 4)
		}
		for y := 0; y < 4; y++ {
			invLift(blk, 4*y, 1)
		}
	case 3:
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				invLift(blk, 4*y+x, 16)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				invLift(blk, 16*z+x, 4)
			}
		}
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				invLift(blk, 16*z+4*y, 1)
			}
		}
	}
}

// int32 ↔ negabinary (ZFP's sign mapping keeps bit planes meaningful).
const nbMask = 0xaaaaaaaa

func int2nb(x int32) uint32 { return (uint32(x) + nbMask) ^ nbMask }
func nb2int(u uint32) int32 { return int32((u ^ nbMask) - nbMask) }

// encodePlanes writes the block's bit planes MSB-first with ZFP's
// group-testing coder, coding planes intprec-1 .. kmin.
func encodePlanes(w *bitio.Writer, coeff []uint32, kmin int) {
	size := len(coeff)
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		// Gather plane k (bit i ⇔ coefficient i, sequency order).
		var x uint64
		for i := 0; i < size; i++ {
			x |= uint64((coeff[i]>>uint(k))&1) << uint(i)
		}
		// First n coefficients are known significant: emit their bits.
		for i := 0; i < n; i++ {
			w.WriteBit(uint(x & 1))
			x >>= 1
		}
		// Group-test the rest.
		for n < size {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for n < size-1 {
				bit := uint(x & 1)
				w.WriteBit(bit)
				if bit != 0 {
					break
				}
				x >>= 1
				n++
			}
			x >>= 1
			n++
		}
	}
}

// decodePlanes mirrors encodePlanes.
func decodePlanes(r *bitio.Reader, size, kmin int) ([]uint32, error) {
	coeff := make([]uint32, size)
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		var x uint64
		for i := 0; i < n; i++ {
			b, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			x |= uint64(b) << uint(i)
		}
		for n < size {
			b, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			if b == 0 {
				break
			}
			for n < size-1 {
				bb, err := r.ReadBit()
				if err != nil {
					return nil, err
				}
				if bb != 0 {
					break
				}
				n++
			}
			x |= uint64(1) << uint(n)
			n++
		}
		for i := 0; i < size; i++ {
			coeff[i] |= uint32((x>>uint(i))&1) << uint(k)
		}
	}
	return coeff, nil
}

// blockGeom precomputes the block iteration for one slab.
type blockGeom struct {
	dims    []int
	strides []int
	nBlocks []int
	rank    int
	size    int // 4^rank
}

func newGeom(dims []int) blockGeom {
	rank := len(dims)
	g := blockGeom{dims: dims, rank: rank, size: 1 << (2 * rank)}
	g.strides = make([]int, rank)
	acc := 1
	for i := rank - 1; i >= 0; i-- {
		g.strides[i] = acc
		acc *= dims[i]
	}
	g.nBlocks = make([]int, rank)
	for i, d := range dims {
		g.nBlocks[i] = (d + 3) / 4
	}
	return g
}

func (g blockGeom) totalBlocks() int {
	t := 1
	for _, n := range g.nBlocks {
		t *= n
	}
	return t
}

// gather copies one block (clamping out-of-range coordinates to the edge,
// which replicates boundary samples as padding).
func (g blockGeom) gather(data []float32, bcoord []int, blk []float64) {
	for cell := 0; cell < g.size; cell++ {
		c := cell
		off := 0
		for ax := g.rank - 1; ax >= 0; ax-- {
			p := bcoord[ax]*4 + (c & 3)
			c >>= 2
			if p >= g.dims[ax] {
				p = g.dims[ax] - 1
			}
			off += p * g.strides[ax]
		}
		blk[cell] = float64(data[off])
	}
}

// scatter writes a decoded block back, skipping padded cells.
func (g blockGeom) scatter(data []float32, bcoord []int, blk []float64) {
	for cell := 0; cell < g.size; cell++ {
		c := cell
		off := 0
		ok := true
		for ax := g.rank - 1; ax >= 0; ax-- {
			p := bcoord[ax]*4 + (c & 3)
			c >>= 2
			if p >= g.dims[ax] {
				ok = false
				break
			}
			off += p * g.strides[ax]
		}
		if ok {
			data[off] = float32(blk[cell])
		}
	}
}

// precision implements ZFP's fixed-accuracy plane budget.
func precision(emax, minexp, rank int) int {
	p := emax - minexp + 2*(rank+1)
	if p < 0 {
		p = 0
	}
	if p > intprec {
		p = intprec
	}
	return p
}

func encodeSlab(w *bitio.Writer, data []float32, dims []int, minexp int) {
	g := newGeom(dims)
	ord := sequency[g.rank-1]
	blk := make([]float64, g.size)
	qi := make([]int32, g.size)
	nb := make([]uint32, g.size)
	bcoord := make([]int, g.rank)
	for b := 0; b < g.totalBlocks(); b++ {
		g.gather(data, bcoord, blk)
		// Common exponent.
		emax := math.MinInt32
		for _, v := range blk {
			if v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				_, e := math.Frexp(math.Abs(v))
				if e > emax {
					emax = e
				}
			}
		}
		prec := 0
		if emax != math.MinInt32 {
			prec = precision(emax, minexp, g.rank)
		}
		if prec == 0 {
			w.WriteBit(0) // empty/negligible block
		} else {
			w.WriteBit(1)
			w.WriteBits(uint64(uint16(int16(emax))), 16)
			// Promote to block-aligned fixed point.
			scale := math.Ldexp(1, guardExp-emax)
			for i, v := range blk {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				qi[i] = int32(v * scale)
			}
			fwdXform(qi, g.rank)
			for i, o := range ord {
				nb[i] = int2nb(qi[o])
			}
			encodePlanes(w, nb, intprec-prec)
		}
		// Next block coordinate.
		for ax := g.rank - 1; ax >= 0; ax-- {
			bcoord[ax]++
			if bcoord[ax] < g.nBlocks[ax] {
				break
			}
			bcoord[ax] = 0
		}
	}
}

func decodeSlab(r *bitio.Reader, data []float32, dims []int, minexp int) error {
	g := newGeom(dims)
	ord := sequency[g.rank-1]
	blk := make([]float64, g.size)
	qi := make([]int32, g.size)
	bcoord := make([]int, g.rank)
	for b := 0; b < g.totalBlocks(); b++ {
		bit, err := r.ReadBit()
		if err != nil {
			return err
		}
		if bit == 0 {
			for i := range blk {
				blk[i] = 0
			}
		} else {
			e, err := r.ReadBits(16)
			if err != nil {
				return err
			}
			emax := int(int16(uint16(e)))
			prec := precision(emax, minexp, g.rank)
			nb, err := decodePlanes(r, g.size, intprec-prec)
			if err != nil {
				return err
			}
			for i, o := range ord {
				qi[o] = nb2int(nb[i])
			}
			invXform(qi, g.rank)
			scale := math.Ldexp(1, emax-guardExp)
			for i, q := range qi {
				blk[i] = float64(q) * scale
			}
		}
		g.scatter(data, bcoord, blk)
		for ax := g.rank - 1; ax >= 0; ax-- {
			bcoord[ax]++
			if bcoord[ax] < g.nBlocks[ax] {
				break
			}
			bcoord[ax] = 0
		}
	}
	return nil
}

// Compress implements codec.Compressor (fixed-accuracy mode with absolute
// tolerance eb; the effective tolerance is 2^⌊log₂ eb⌋ ≤ eb, like ZFP).
func (Compressor) Compress(ds *dataset.Dataset, eb float64) ([]byte, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if eb <= 0 {
		return nil, fmt.Errorf("zfp: tolerance must be positive, got %g", eb)
	}
	// The block transform has no way to represent NaN/Inf: they would be
	// silently zeroed during fixed-point promotion, violating the bound
	// without any signal. Reject them up front instead.
	for i, v := range ds.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("zfp: non-finite value %g at index %d: ZFP cannot bound NaN/Inf (mask or replace them first)", v, i)
		}
	}
	minexp := int(math.Floor(math.Log2(eb)))
	dims := ds.Dims
	out := make([]byte, 0, len(ds.Data))
	out = append(out, magic...)
	out = append(out, 1) // version
	out = append(out, byte(len(dims)))
	var b2 [2]byte
	binary.LittleEndian.PutUint16(b2[:], uint16(int16(minexp)))
	out = append(out, b2[:]...)
	for _, d := range dims {
		out = appendUvarint(out, uint64(d))
	}
	w := bitio.NewWriter(len(ds.Data))
	if len(dims) <= 3 {
		encodeSlab(w, ds.Data, dims, minexp)
	} else {
		// 4D: independent 3D slabs along the leading dimension.
		slab := 1
		for _, d := range dims[1:] {
			slab *= d
		}
		for t := 0; t < dims[0]; t++ {
			encodeSlab(w, ds.Data[t*slab:(t+1)*slab], dims[1:], minexp)
		}
	}
	bits := w.Bytes()
	out = appendUvarint(out, uint64(len(bits)))
	return append(out, bits...), nil
}

// Decompress implements codec.Compressor.
func (Compressor) Decompress(blob []byte) ([]float32, []int, error) {
	if len(blob) < 8 || string(blob[:4]) != magic {
		return nil, nil, ErrCorrupt
	}
	pos := 4
	if blob[pos] != 1 {
		return nil, nil, fmt.Errorf("zfp: unsupported version %d", blob[pos])
	}
	pos++
	rank := int(blob[pos])
	pos++
	if rank < 1 || rank > 4 {
		return nil, nil, ErrCorrupt
	}
	minexp := int(int16(binary.LittleEndian.Uint16(blob[pos:])))
	pos += 2
	dims := make([]int, rank)
	vol := 1
	for i := range dims {
		d, n := binary.Uvarint(blob[pos:])
		if n <= 0 || d == 0 || d > 1<<31 {
			return nil, nil, ErrCorrupt
		}
		pos += n
		dims[i] = int(d)
		vol *= int(d)
		if vol > 1<<33 {
			return nil, nil, ErrCorrupt
		}
	}
	blen, n := binary.Uvarint(blob[pos:])
	if n <= 0 {
		return nil, nil, ErrCorrupt
	}
	pos += n
	if blen > uint64(len(blob)-pos) {
		return nil, nil, ErrCorrupt
	}
	r := bitio.NewReader(blob[pos : pos+int(blen)])
	data := make([]float32, vol)
	if rank <= 3 {
		if err := decodeSlab(r, data, dims, minexp); err != nil {
			return nil, nil, err
		}
	} else {
		slab := vol / dims[0]
		for t := 0; t < dims[0]; t++ {
			if err := decodeSlab(r, data[t*slab:(t+1)*slab], dims[1:], minexp); err != nil {
				return nil, nil, err
			}
		}
	}
	return data, dims, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}
