// Package sperr reimplements the SPERR baseline (NCAR's wavelet compressor:
// CDF 9/7 transform + coefficient coding + outlier correction), the
// wavelet-based comparator of the paper's evaluation.
//
// The pipeline: a multi-level dyadic CDF 9/7 lifting transform decorrelates
// the field; coefficients are uniformly quantized and entropy-coded
// (Huffman + flate); a correction pass then guarantees the absolute error
// bound exactly as SPERR's outlier coding does — every point whose
// wavelet-domain reconstruction violates the bound gets an explicit
// quantized correction. Fill values produce huge coefficients across whole
// subbands, so masked climate fields code poorly — the transform-coder
// weakness the paper exploits (§V-A).
package sperr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cliz/internal/codec"
	"cliz/internal/dataset"
	"cliz/internal/huffman"
	"cliz/internal/lossless"
	"cliz/internal/quant"
)

const (
	magic = "SPR1"
	// maxLevels bounds the dyadic decomposition depth.
	maxLevels = 5
	// stepFactor sets the quantization step as a fraction of the error
	// bound; smaller steps cost coefficient bits but produce fewer
	// outliers. 1.0 balances well for smooth fields.
	stepFactor = 1.0
)

// ErrCorrupt reports a malformed SPERR blob.
var ErrCorrupt = errors.New("sperr: corrupt blob")

// Compressor implements codec.Compressor.
type Compressor struct{}

func init() { codec.Register(Compressor{}) }

// Name implements codec.Compressor.
func (Compressor) Name() string { return "SPERR" }

func zigzag(k int64) uint64 { return uint64((k << 1) ^ (k >> 63)) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// Compress implements codec.Compressor.
func (Compressor) Compress(ds *dataset.Dataset, eb float64) ([]byte, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if eb <= 0 || math.IsInf(eb, 0) || math.IsNaN(eb) {
		return nil, fmt.Errorf("sperr: error bound must be positive and finite, got %g", eb)
	}
	dims := ds.Dims
	vol := len(ds.Data)
	step := eb * stepFactor

	// Forward transform.
	coeff := make([]float64, vol)
	for i, v := range ds.Data {
		coeff[i] = float64(v)
	}
	dwt(coeff, dims, maxLevels, true)

	// Uniform quantization. Coefficients that overflow the symbol range
	// (possible with fill-value energy) are stored as exact literals.
	const maxBin = int64(1) << 40
	syms := make([]uint32, 0, vol)
	var bigSyms []uint64 // zigzag bins too large for uint32 symbols
	deq := make([]float64, vol)
	for i, c := range coeff {
		k := int64(math.Round(c / step))
		if k > maxBin || k < -maxBin || math.IsNaN(c) {
			k = 0 // treated as zero; the outlier pass repairs the damage
		}
		z := zigzag(k)
		if z < 1<<31 {
			syms = append(syms, uint32(z)<<1)
		} else {
			syms = append(syms, 1) // escape symbol (odd): value in side list
			bigSyms = append(bigSyms, z)
		}
		deq[i] = float64(k) * step
	}

	// Reconstruct to find outliers.
	dwt(deq, dims, maxLevels, false)
	q := quant.New(eb, quant.DefaultRadius)
	var outIdx []byte // varint deltas
	var outBins []byte
	var outLits []float32
	nOut := 0
	prev := 0
	for i, v := range ds.Data {
		// The decoder emits float32, so the outlier test must use the
		// float32-rounded prediction or large values (e.g. fills) would
		// slip past the bound through rounding alone.
		pred := float64(float32(deq[i]))
		if math.Abs(float64(v)-pred) <= eb {
			continue
		}
		bin, _, exact := q.Quantize(pred, float64(v))
		outIdx = appendUvarint(outIdx, uint64(i-prev))
		prev = i
		outBins = appendUvarint(outBins, uint64(bin))
		if exact {
			outLits = append(outLits, v)
		}
		nOut++
	}

	// Serialize.
	out := make([]byte, 0, vol)
	out = append(out, magic...)
	out = append(out, 1) // version
	out = append(out, byte(len(dims)))
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(eb))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(step))
	out = append(out, b8[:]...)
	for _, d := range dims {
		out = appendUvarint(out, uint64(d))
	}
	be := lossless.Flate{Level: 6}
	out = appendBlob(out, lossless.Encode(be, huffman.EncodeBlock(syms)))
	var bigBuf []byte
	bigBuf = appendUvarint(bigBuf, uint64(len(bigSyms)))
	for _, z := range bigSyms {
		bigBuf = appendUvarint(bigBuf, z)
	}
	out = appendBlob(out, lossless.Encode(be, bigBuf))
	var outHdr []byte
	outHdr = appendUvarint(outHdr, uint64(nOut))
	outHdr = append(outHdr, outIdx...)
	outHdr = append(outHdr, outBins...)
	out = appendBlob(out, lossless.Encode(be, outHdr))
	out = appendBlob(out, lossless.Encode(be, float32sToBytes(outLits)))
	return out, nil
}

// Decompress implements codec.Compressor.
func (Compressor) Decompress(blob []byte) ([]float32, []int, error) {
	if len(blob) < 6 || string(blob[:4]) != magic {
		return nil, nil, ErrCorrupt
	}
	pos := 4
	if blob[pos] != 1 {
		return nil, nil, fmt.Errorf("sperr: unsupported version %d", blob[pos])
	}
	pos++
	rank := int(blob[pos])
	pos++
	if rank < 1 || rank > 4 || len(blob)-pos < 16 {
		return nil, nil, ErrCorrupt
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(blob[pos:]))
	pos += 8
	step := math.Float64frombits(binary.LittleEndian.Uint64(blob[pos:]))
	pos += 8
	if eb <= 0 || step <= 0 || math.IsNaN(eb) || math.IsNaN(step) {
		return nil, nil, ErrCorrupt
	}
	dims := make([]int, rank)
	vol := 1
	for i := range dims {
		d, err := readUvarint(blob, &pos)
		if err != nil || d == 0 || d > 1<<31 {
			return nil, nil, ErrCorrupt
		}
		dims[i] = int(d)
		vol *= int(d)
		if vol > 1<<33 {
			return nil, nil, ErrCorrupt
		}
	}
	symsSec, err := readBlob(blob, &pos)
	if err != nil {
		return nil, nil, err
	}
	raw, err := lossless.Decode(symsSec)
	if err != nil {
		return nil, nil, err
	}
	syms, _, err := huffman.DecodeBlock(raw)
	if err != nil {
		return nil, nil, err
	}
	if len(syms) != vol {
		return nil, nil, ErrCorrupt
	}
	bigSec, err := readBlob(blob, &pos)
	if err != nil {
		return nil, nil, err
	}
	bigBuf, err := lossless.Decode(bigSec)
	if err != nil {
		return nil, nil, err
	}
	bp := 0
	nBig, err := readUvarint(bigBuf, &bp)
	if err != nil {
		return nil, nil, err
	}
	bigSyms := make([]uint64, nBig)
	for i := range bigSyms {
		z, err := readUvarint(bigBuf, &bp)
		if err != nil {
			return nil, nil, err
		}
		bigSyms[i] = z
	}
	outSec, err := readBlob(blob, &pos)
	if err != nil {
		return nil, nil, err
	}
	outHdr, err := lossless.Decode(outSec)
	if err != nil {
		return nil, nil, err
	}
	litSec, err := readBlob(blob, &pos)
	if err != nil {
		return nil, nil, err
	}
	litBytes, err := lossless.Decode(litSec)
	if err != nil {
		return nil, nil, err
	}
	outLits, err := bytesToFloat32s(litBytes)
	if err != nil {
		return nil, nil, err
	}

	// Dequantize + inverse transform.
	deq := make([]float64, vol)
	bi := 0
	for i, s := range syms {
		var z uint64
		if s&1 == 1 {
			if bi >= len(bigSyms) {
				return nil, nil, ErrCorrupt
			}
			z = bigSyms[bi]
			bi++
		} else {
			z = uint64(s >> 1)
		}
		deq[i] = float64(unzig(z)) * step
	}
	dwt(deq, dims, maxLevels, false)

	data := make([]float32, vol)
	for i, v := range deq {
		data[i] = float32(v)
	}
	// Apply outlier corrections.
	op := 0
	nOut, err := readUvarint(outHdr, &op)
	if err != nil {
		return nil, nil, err
	}
	idxs := make([]int, nOut)
	prev := 0
	for i := range idxs {
		d, err := readUvarint(outHdr, &op)
		if err != nil {
			return nil, nil, err
		}
		prev += int(d)
		if prev >= vol {
			return nil, nil, ErrCorrupt
		}
		idxs[i] = prev
	}
	q := quant.New(eb, quant.DefaultRadius)
	li := 0
	for _, idx := range idxs {
		b, err := readUvarint(outHdr, &op)
		if err != nil {
			return nil, nil, err
		}
		var lit float64
		if b == 0 {
			if li >= len(outLits) {
				return nil, nil, ErrCorrupt
			}
			lit = float64(outLits[li])
			li++
		}
		// Use the same float32-rounded prediction the encoder tested.
		data[idx] = float32(q.Recover(float64(data[idx]), int32(b), lit))
	}
	return data, dims, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func readUvarint(src []byte, pos *int) (uint64, error) {
	v, n := binary.Uvarint(src[*pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	*pos += n
	return v, nil
}

func appendBlob(dst, payload []byte) []byte {
	dst = appendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

func readBlob(src []byte, pos *int) ([]byte, error) {
	l, err := readUvarint(src, pos)
	if err != nil {
		return nil, err
	}
	if l > uint64(len(src)-*pos) {
		return nil, ErrCorrupt
	}
	out := src[*pos : *pos+int(l)]
	*pos += int(l)
	return out, nil
}

func float32sToBytes(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func bytesToFloat32s(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, ErrCorrupt
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}
