// Package qoz reimplements the QoZ 1.1 baseline (Liu et al., SC '22 —
// "dynamic quality metric oriented error bounded lossy compression"): the
// SZ3 interpolation framework plus auto-tuned level-wise error bounds.
// Coarse interpolation levels anchor all finer predictions, so QoZ spends
// extra precision there — eb_ℓ = eb / min(α^(ℓ−1), β) — and tunes α on a
// sample, which usually buys a better rate–distortion trade than flat SZ3.
package qoz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cliz/internal/codec"
	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/huffman"
	"cliz/internal/interp"
	"cliz/internal/lossless"
	"cliz/internal/predict"
	"cliz/internal/quant"
)

const magic = "QOZ1"

// Beta caps how much tighter the coarse levels get.
const Beta = 4.0

// Alphas is the per-level tightening factor search space.
var Alphas = []float64{1.0, 1.25, 1.5, 1.75, 2.0}

// ErrCorrupt reports a malformed QoZ blob.
var ErrCorrupt = errors.New("qoz: corrupt blob")

// Compressor implements codec.Compressor.
type Compressor struct{}

func init() { codec.Register(Compressor{}) }

// Name implements codec.Compressor.
func (Compressor) Name() string { return "QoZ" }

func levelFactor(alpha float64) func(int) float64 {
	return func(level int) float64 {
		return 1 / math.Min(math.Pow(alpha, float64(level-1)), Beta)
	}
}

func config(eb, alpha float64, fit predict.Fitting) interp.Config {
	return interp.Config{
		EB:            eb,
		Radius:        quant.DefaultRadius,
		Fitting:       fit,
		LevelEBFactor: levelFactor(alpha),
	}
}

// tune picks (alpha, fitting) minimizing the compressed size of a ~1%
// sample, mirroring QoZ's sampling-based auto-tuning.
func tune(data []float32, dims []int, eb float64) (float64, predict.Fitting) {
	blocks := grid.SampleBlocks(dims, 0.01, 4)
	sample, sdims := grid.ConcatBlocks(data, dims, blocks)
	bestAlpha, bestFit := 1.0, predict.Cubic
	bestLen := -1
	if len(sample) == 0 {
		return bestAlpha, bestFit
	}
	for _, alpha := range Alphas {
		for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
			blob, err := encodeUnit(sample, sdims, eb, alpha, fit)
			if err != nil {
				continue
			}
			if bestLen < 0 || len(blob) < bestLen {
				bestAlpha, bestFit, bestLen = alpha, fit, len(blob)
			}
		}
	}
	return bestAlpha, bestFit
}

func encodeUnit(data []float32, dims []int, eb, alpha float64, fit predict.Fitting) ([]byte, error) {
	res, err := interp.Compress(data, dims, config(eb, alpha, fit))
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(data)/2)
	out = append(out, magic...)
	out = append(out, 1) // version
	fb := byte(0)
	if fit == predict.Cubic {
		fb = 1
	}
	out = append(out, fb)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(alpha))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(eb))
	out = append(out, b8[:]...)
	out = appendUvarint(out, uint64(len(dims)))
	for _, d := range dims {
		out = appendUvarint(out, uint64(d))
	}
	syms := make([]uint32, len(res.Bins))
	for i, b := range res.Bins {
		syms[i] = uint32(b)
	}
	be := lossless.Flate{Level: 6}
	sec := lossless.Encode(be, huffman.EncodeBlock(syms))
	out = appendUvarint(out, uint64(len(sec)))
	out = append(out, sec...)
	lits := lossless.Encode(be, float32sToBytes(res.Literals))
	out = appendUvarint(out, uint64(len(lits)))
	out = append(out, lits...)
	return out, nil
}

// Compress implements codec.Compressor (mask/periodicity metadata ignored —
// QoZ is a general-purpose compressor).
func (Compressor) Compress(ds *dataset.Dataset, eb float64) ([]byte, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if eb <= 0 {
		return nil, fmt.Errorf("qoz: error bound must be positive, got %g", eb)
	}
	alpha, fit := tune(ds.Data, ds.Dims, eb)
	return encodeUnit(ds.Data, ds.Dims, eb, alpha, fit)
}

// Decompress implements codec.Compressor.
func (Compressor) Decompress(blob []byte) ([]float32, []int, error) {
	pos := 0
	if len(blob) < 6 || string(blob[:4]) != magic {
		return nil, nil, ErrCorrupt
	}
	pos = 4
	if blob[pos] != 1 {
		return nil, nil, fmt.Errorf("qoz: unsupported version %d", blob[pos])
	}
	pos++
	fit := predict.Linear
	if blob[pos] == 1 {
		fit = predict.Cubic
	}
	pos++
	if len(blob)-pos < 16 {
		return nil, nil, ErrCorrupt
	}
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(blob[pos:]))
	pos += 8
	eb := math.Float64frombits(binary.LittleEndian.Uint64(blob[pos:]))
	pos += 8
	if eb <= 0 || math.IsNaN(eb) || alpha < 1 || math.IsNaN(alpha) {
		return nil, nil, ErrCorrupt
	}
	nd, err := readUvarint(blob, &pos)
	if err != nil || nd < 1 || nd > 8 {
		return nil, nil, ErrCorrupt
	}
	dims := make([]int, nd)
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
	sec, err := readSection(blob, &pos)
	if err != nil {
		return nil, nil, err
	}
	raw, err := lossless.Decode(sec)
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
	litSec, err := readSection(blob, &pos)
	if err != nil {
		return nil, nil, err
	}
	litBytes, err := lossless.Decode(litSec)
	if err != nil {
		return nil, nil, err
	}
	lits, err := bytesToFloat32s(litBytes)
	if err != nil {
		return nil, nil, err
	}
	bins := make([]int32, vol)
	for i, s := range syms {
		bins[i] = int32(s)
	}
	data, err := interp.Decompress(bins, lits, dims, config(eb, alpha, fit))
	if err != nil {
		return nil, nil, err
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

func readSection(src []byte, pos *int) ([]byte, error) {
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
