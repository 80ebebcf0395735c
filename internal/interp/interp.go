// Package interp implements the multi-level dynamic spline interpolation
// engine of the SZ3 framework (paper §IV, §VI-B) that underlies the SZ3 and
// QoZ baselines and the CliZ compressor.
//
// Points are visited level by level: at level ℓ the stride is 2^(ℓ−1), and
// within a level each dimension is processed in sequence; along a dimension
// the points at odd multiples of the stride are predicted from the already
// reconstructed neighbours at ±s (linear fitting) or −3s, −s, +s, +3s (cubic
// fitting, Formula (1)). The compressor and the decompressor execute the
// identical traversal, so predictions are bit-identical on both sides.
//
// CliZ's extensions are threaded through the same engine:
//
//   - Mask awareness (§VI-B): a reference that is out of bounds *or* masked
//     is marked invalid, and the fitting coefficients degrade through the
//     closed form of Theorem 1 (package predict). Masked target points are
//     skipped entirely — they produce no quantization bin.
//   - Per-level error bounds (QoZ): Config.LevelEBFactor scales the error
//     bound per level; factors ≤ 1 keep the global bound intact.
//
// The engine traverses a *logical* grid while addressing values through a
// grid.Layout, so a dimension permutation can be fused into the index
// arithmetic instead of materializing a transposed copy. The logical
// traversal order — and with it the bin and literal streams — is identical
// either way.
package interp

import (
	"errors"
	"fmt"
	"math"

	"cliz/internal/grid"
	"cliz/internal/predict"
	"cliz/internal/quant"
)

// ErrCorrupt is returned by Decompress when the bin/literal streams are
// inconsistent with the grid.
var ErrCorrupt = errors.New("interp: corrupt compressed stream")

// Config parameterizes one engine run. The same Config must be used for
// Compress and Decompress.
type Config struct {
	// EB is the absolute error bound (> 0).
	EB float64
	// Radius is the quantizer radius; 0 selects quant.DefaultRadius.
	Radius int32
	// Fitting selects linear or cubic prediction.
	Fitting predict.Fitting
	// Valid marks usable points in logical (traversal) order; nil means all
	// points are valid. Length must equal the grid volume. Masked points are
	// neither predicted nor used as references.
	Valid []bool
	// LevelEBFactor, if non-nil, scales the error bound at each level
	// (level 1 = finest). Factors must be in (0, 1] to preserve the bound.
	LevelEBFactor func(level int) float64
	// FillValue is written to masked positions on decompression.
	FillValue float32
}

// Result is the compressor-side output of one engine run.
type Result struct {
	// Bins holds one quantization bin per grid point in row-major grid
	// order. Masked positions hold 0 and must be skipped when serializing.
	Bins []int32
	// Literals holds the exact values of unpredictable points in traversal
	// order.
	Literals []float32
	// Recon is the reconstructed data (what the decompressor will produce),
	// useful for distortion metrics without a decode pass.
	Recon []float32
}

// Levels returns the number of interpolation levels for the given dims:
// ceil(log2(max extent)).
func Levels(dims []int) int {
	maxd := 0
	for _, d := range dims {
		if d > maxd {
			maxd = d
		}
	}
	l := 0
	for (1 << l) < maxd {
		l++
	}
	return l
}

type engine struct {
	dims     []int
	strides  []int // logical row-major strides (bins, mask)
	pstrides []int // physical strides into work (layout)
	base     int   // physical index of the logical origin
	n        int
	vol      int
	cfg      Config
	work     []float32 // reconstructed values, evolves during the run

	decode bool
	bins   []int32
	lits   []float32
	litPos int
	err    error

	// verify mode: the decode traversal is replayed read-only over a
	// finished reconstruction, re-deriving every prediction from the final
	// values (valid because decode references are always finalized) and
	// checking each vEvery-th point regenerates exactly.
	verify   bool
	vEvery   int
	vSeen    int
	vChecked int

	q quant.Quantizer
}

func newEngine(lay grid.Layout, cfg Config) (*engine, error) {
	vol := grid.Volume(lay.Dims)
	if vol == 0 {
		return nil, fmt.Errorf("interp: empty grid %v: %w", lay.Dims, ErrCorrupt)
	}
	if !lay.Valid() {
		return nil, fmt.Errorf("interp: invalid layout %v/%v: %w", lay.Dims, lay.Strides, ErrCorrupt)
	}
	if cfg.EB <= 0 {
		return nil, fmt.Errorf("interp: error bound must be positive, got %g: %w", cfg.EB, ErrCorrupt)
	}
	if cfg.Valid != nil && len(cfg.Valid) != vol {
		return nil, fmt.Errorf("interp: mask length %d != volume %d: %w", len(cfg.Valid), vol, ErrCorrupt)
	}
	if cfg.Radius == 0 {
		cfg.Radius = quant.DefaultRadius
	}
	return &engine{
		dims:     lay.Dims,
		strides:  grid.Strides(lay.Dims),
		pstrides: lay.Strides,
		base:     lay.Base,
		n:        len(lay.Dims),
		vol:      vol,
		cfg:      cfg,
	}, nil
}

// checkWork validates that the physical buffer covers every index the
// layout can touch. The layout ultimately comes from a blob header on the
// decode side, so this is a hard bounds check, not an assertion.
func (e *engine) checkWork(buf []float32, what string) error {
	max := e.base
	for i, d := range e.dims {
		max += (d - 1) * e.pstrides[i]
	}
	if max >= len(buf) {
		return fmt.Errorf("interp: %s length %d does not cover layout (max index %d): %w",
			what, len(buf), max, ErrCorrupt)
	}
	return nil
}

// Compress runs prediction + quantization over data.
func Compress(data []float32, dims []int, cfg Config) (Result, error) {
	vol := grid.Volume(dims)
	bins := make([]int32, vol)
	recon := make([]float32, vol)
	lits, err := CompressBuffers(data, dims, cfg, bins, recon)
	if err != nil {
		return Result{}, err
	}
	return Result{Bins: bins, Literals: lits, Recon: recon}, nil
}

// CompressBuffers is Compress writing bins and the reconstruction into
// caller-provided slices (each of length equal to the grid volume) and
// returning the literal stream. Sectioned parallel compression uses it to
// run independent engine instances over disjoint windows of one global
// bins/recon pair without per-section allocation.
func CompressBuffers(data []float32, dims []int, cfg Config, bins []int32, recon []float32) ([]float32, error) {
	vol := grid.Volume(dims)
	if len(data) != vol {
		return nil, fmt.Errorf("interp: data length %d != volume %d", len(data), vol)
	}
	if len(bins) != vol || len(recon) != vol {
		return nil, fmt.Errorf("interp: buffer length %d/%d != volume %d", len(bins), len(recon), vol)
	}
	copy(recon, data)
	return CompressLayout(recon, grid.IdentityLayout(dims), cfg, bins)
}

// CompressLayout runs prediction + quantization in place: on entry work
// holds the original values at the layout's physical positions, on exit the
// reconstruction. bins (logical row-major order, one per point) is
// overwritten; the literal stream is returned. This is the fused-permutation
// entry point — the layout carries the permuted view so no transposed copy
// of the data is needed.
func CompressLayout(work []float32, lay grid.Layout, cfg Config, bins []int32) ([]float32, error) {
	e, err := newEngine(lay, cfg)
	if err != nil {
		return nil, err
	}
	if len(bins) != e.vol {
		return nil, fmt.Errorf("interp: bins length %d != volume %d", len(bins), e.vol)
	}
	if err := e.checkWork(work, "work"); err != nil {
		return nil, err
	}
	// Masked points keep bin 0; without a mask the traversal writes every
	// bin (TestTraversalCoversEveryPointOnce).
	if cfg.Valid != nil {
		clear(bins)
	}
	e.work = work
	e.bins = bins
	e.run()
	if e.err != nil {
		return nil, e.err
	}
	e.fillMasked()
	return e.lits, nil
}

// Decompress reconstructs data from grid-ordered bins and traversal-ordered
// literals. bins must have one entry per grid point (entries at masked
// positions are ignored).
func Decompress(bins []int32, literals []float32, dims []int, cfg Config) ([]float32, error) {
	out := make([]float32, grid.Volume(dims))
	if err := DecompressBuffers(bins, literals, dims, cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressBuffers is Decompress writing the reconstruction into a
// caller-provided slice of length equal to the grid volume. The literal
// slice may extend past this run's consumption (sections consume a prefix).
func DecompressBuffers(bins []int32, literals []float32, dims []int, cfg Config, out []float32) error {
	vol := grid.Volume(dims)
	if len(out) != vol {
		return fmt.Errorf("interp: out length %d != volume %d: %w", len(out), vol, ErrCorrupt)
	}
	return DecompressLayout(bins, literals, grid.IdentityLayout(dims), cfg, out)
}

// DecompressLayout reconstructs through a layout: bins and literals are in
// logical order, the reconstruction lands at the layout's physical
// positions in out. The fused decode path writes straight into the
// original-layout output buffer, eliminating the unpermute pass.
func DecompressLayout(bins []int32, literals []float32, lay grid.Layout, cfg Config, out []float32) error {
	e, err := newEngine(lay, cfg)
	if err != nil {
		return err
	}
	if len(bins) != e.vol {
		return fmt.Errorf("interp: bins length %d != volume %d: %w", len(bins), e.vol, ErrCorrupt)
	}
	if err := e.checkWork(out, "out"); err != nil {
		return err
	}
	e.decode = true
	e.work = out
	e.bins = bins
	e.lits = literals
	e.run()
	if e.err != nil {
		return e.err
	}
	e.fillMasked()
	return nil
}

// VerifyBuffers replays the decode traversal read-only over a finished
// reconstruction, checking that every `every`-th handled point (1 = all) is
// exactly regenerated from its recorded bin — i.e. that recon is the value
// the bin stream commits to, which the encoder verified against the error
// bound. It returns the number of points checked. The replay is sound
// because decode predictions only ever reference finalized values.
func VerifyBuffers(bins []int32, literals []float32, dims []int, cfg Config, recon []float32, every int) (int, error) {
	vol := grid.Volume(dims)
	if len(recon) != vol {
		return 0, fmt.Errorf("interp: recon length %d != volume %d: %w", len(recon), vol, ErrCorrupt)
	}
	return VerifyLayout(bins, literals, grid.IdentityLayout(dims), cfg, recon, every)
}

// VerifyLayout is VerifyBuffers over a layout-addressed reconstruction.
func VerifyLayout(bins []int32, literals []float32, lay grid.Layout, cfg Config, recon []float32, every int) (int, error) {
	e, err := newEngine(lay, cfg)
	if err != nil {
		return 0, err
	}
	if len(bins) != e.vol {
		return 0, fmt.Errorf("interp: bins length %d != volume %d: %w", len(bins), e.vol, ErrCorrupt)
	}
	if err := e.checkWork(recon, "recon"); err != nil {
		return 0, err
	}
	if every < 1 {
		every = 1
	}
	e.decode = true
	e.verify = true
	e.vEvery = every
	e.work = recon
	e.bins = bins
	e.lits = literals
	e.run()
	return e.vChecked, e.err
}

// fillMasked writes the fill value to every masked position, addressing the
// physical buffer through the layout.
func (e *engine) fillMasked() {
	if e.cfg.Valid == nil {
		return
	}
	coord := make([]int, e.n)
	idxP := e.base
	for idx := 0; idx < e.vol; idx++ {
		if !e.cfg.Valid[idx] {
			e.work[idxP] = e.cfg.FillValue
		}
		for ax := e.n - 1; ax >= 0; ax-- {
			coord[ax]++
			idxP += e.pstrides[ax]
			if coord[ax] < e.dims[ax] {
				break
			}
			coord[ax] = 0
			idxP -= e.pstrides[ax] * e.dims[ax]
		}
	}
}

// run executes the full traversal (both directions share it, guaranteeing
// symmetry).
func (e *engine) run() {
	levels := Levels(e.dims)
	// The origin is handled first, predicted as 0.
	e.q = e.quantizerFor(levels)
	if e.valid(0) {
		e.handle(0, e.base, 0)
	}
	for level := levels; level >= 1; level-- {
		if e.err != nil {
			return
		}
		e.q = e.quantizerFor(level)
		stride := 1 << (level - 1)
		for d := 0; d < e.n; d++ {
			e.passDim(d, stride)
		}
	}
}

func (e *engine) quantizerFor(level int) quant.Quantizer {
	eb := e.cfg.EB
	if e.cfg.LevelEBFactor != nil {
		f := e.cfg.LevelEBFactor(level)
		if f > 0 {
			eb *= f
		}
	}
	return quant.New(eb, e.cfg.Radius)
}

func (e *engine) valid(idx int) bool {
	return e.cfg.Valid == nil || e.cfg.Valid[idx]
}

// passDim predicts, along dimension d, every point whose d-coordinate is an
// odd multiple of stride, whose earlier coordinates are multiples of stride,
// and whose later coordinates are multiples of 2·stride. The odometer
// carries the logical and physical line origins in lockstep.
func (e *engine) passDim(d, stride int) {
	dimD := e.dims[d]
	if stride >= dimD {
		return
	}
	stepD := e.strides[d] * stride
	pstepD := e.pstrides[d] * stride

	// Odometer over the other dimensions.
	counts := make([]int, 0, e.n-1)
	steps := make([]int, 0, e.n-1)
	psteps := make([]int, 0, e.n-1)
	for k := 0; k < e.n; k++ {
		if k == d {
			continue
		}
		s := stride
		if k > d {
			s = 2 * stride
		}
		cnt := (e.dims[k] + s - 1) / s
		counts = append(counts, cnt)
		steps = append(steps, e.strides[k]*s)
		psteps = append(psteps, e.pstrides[k]*s)
	}
	nOther := len(counts)
	pos := make([]int, nOther)
	base, pbase := 0, e.base
	for {
		if e.err != nil {
			return
		}
		e.line(base+stepD, pbase+pstepD, dimD, stepD, pstepD, stride)
		// Odometer increment.
		carry := nOther - 1
		for ; carry >= 0; carry-- {
			pos[carry]++
			base += steps[carry]
			pbase += psteps[carry]
			if pos[carry] < counts[carry] {
				break
			}
			pos[carry] = 0
			base -= steps[carry] * counts[carry]
			pbase -= psteps[carry] * counts[carry]
		}
		if carry < 0 {
			return
		}
	}
}

// line walks one target line along the active dimension: x = stride,
// 3·stride, ... idx/idxP start at the x = stride point. The interior of the
// line — every point whose references all lie inside it — runs the fused
// kernel for the fitting and direction (kernel.go). The prologue (cubic
// points whose left references underrun the line) and the epilogue take the
// general point predictor. The order of the points is the same either way,
// so bins and literals are too.
func (e *engine) line(idx, idxP, dimD, stepD, pstepD, stride int) {
	x := stride
	reach := stride // distance from a target to its furthest reference
	if e.cfg.Fitting == predict.Cubic {
		reach = 3 * stride
	}
	for ; x < dimD && x < reach; x += 2 * stride {
		e.predictPoint(idx, idxP, x, dimD, stepD, pstepD, stride)
		idx += 2 * stepD
		idxP += 2 * pstepD
	}
	if x+reach < dimD {
		n := (dimD-reach-x-1)/(2*stride) + 1
		switch {
		case e.cfg.Fitting == predict.Cubic && e.decode:
			e.decodeCubic(idx, idxP, x, n, dimD, stepD, pstepD, stride)
		case e.cfg.Fitting == predict.Cubic:
			e.encodeCubic(idx, idxP, x, n, dimD, stepD, pstepD, stride)
		case e.decode:
			e.decodeLinear(idx, idxP, x, n, dimD, stepD, pstepD, stride)
		default:
			e.encodeLinear(idx, idxP, x, n, dimD, stepD, pstepD, stride)
		}
		if e.err != nil {
			return
		}
		x += 2 * stride * n
		idx += 2 * stepD * n
		idxP += 2 * pstepD * n
	}
	for ; x < dimD; x += 2 * stride {
		e.predictPoint(idx, idxP, x, dimD, stepD, pstepD, stride)
		idx += 2 * stepD
		idxP += 2 * pstepD
	}
}

// predictPoint predicts the point at logical index idx (physical idxP)
// whose coordinate along the active dimension is x (0 ≤ x < dimD), with
// logical step stepD and physical step pstepD per stride. References sit at
// coordinates x ± stride and (for cubic) x ± 3·stride (paper Fig. 6);
// references that fall outside the grid or on masked points are flagged
// invalid and the fitting degrades via Formula (2).
func (e *engine) predictPoint(idx, idxP, x, dimD, stepD, pstepD, stride int) {
	if !e.valid(idx) {
		return
	}
	var pred float64
	if e.cfg.Fitting == predict.Cubic {
		var d [4]float64
		vm := 0
		if x-3*stride >= 0 && e.valid(idx-3*stepD) {
			d[0] = float64(e.work[idxP-3*pstepD])
			vm |= 1 << 0
		}
		if x-stride >= 0 && e.valid(idx-stepD) {
			d[1] = float64(e.work[idxP-pstepD])
			vm |= 1 << 1
		}
		if x+stride < dimD && e.valid(idx+stepD) {
			d[2] = float64(e.work[idxP+pstepD])
			vm |= 1 << 2
		}
		if x+3*stride < dimD && e.valid(idx+3*stepD) {
			d[3] = float64(e.work[idxP+3*pstepD])
			vm |= 1 << 3
		}
		pred = predict.PredictCubic(d, vm)
	} else {
		var d1, d2 float64
		vm := 0
		if x-stride >= 0 && e.valid(idx-stepD) {
			d1 = float64(e.work[idxP-pstepD])
			vm |= 1
		}
		if x+stride < dimD && e.valid(idx+stepD) {
			d2 = float64(e.work[idxP+pstepD])
			vm |= 2
		}
		pred = predict.PredictLinear(d1, d2, vm)
	}
	e.handle(idx, idxP, pred)
}

// handle quantizes (compress) or recovers (decompress) the point at logical
// index idx, reading and writing the value at physical index idxP.
func (e *engine) handle(idx, idxP int, pred float64) {
	if e.decode {
		bin := e.bins[idx]
		var lit float64
		if bin == 0 {
			if e.litPos >= len(e.lits) {
				e.err = errUnderrun(idx)
				return
			}
			lit = float64(e.lits[e.litPos])
			e.litPos++
		}
		if e.verify {
			e.checkPoint(idx, idxP, pred, bin, lit)
			return
		}
		e.work[idxP] = float32(e.q.Recover(pred, bin, lit))
		return
	}
	orig := float64(e.work[idxP])
	bin, recon, exact := e.q.Quantize(pred, orig)
	if exact {
		e.lits = append(e.lits, e.work[idxP])
		// recon == orig; work[idxP] already holds it.
		_ = recon
	} else {
		e.work[idxP] = float32(recon)
	}
	e.bins[idx] = bin
}

func errUnderrun(idx int) error {
	return fmt.Errorf("interp: literal stream underrun at point %d: %w", idx, ErrCorrupt)
}

// checkPoint compares the finished reconstruction at idxP against the value
// its bin (or literal) regenerates, sampling every vEvery-th handled point.
func (e *engine) checkPoint(idx, idxP int, pred float64, bin int32, lit float64) {
	if bin < 0 || bin >= 2*e.q.Radius() {
		e.err = fmt.Errorf("interp: bin %d out of range at point %d: %w", bin, idx, ErrCorrupt)
		return
	}
	e.vSeen++
	if (e.vSeen-1)%e.vEvery != 0 {
		return
	}
	want := float32(e.q.Recover(pred, bin, lit))
	got := e.work[idxP]
	//clizlint:ignore floateq bit-exact self-verification replay: the decoder recomputes the identical arithmetic, so any difference is corruption
	if want != got && !(math.IsNaN(float64(want)) && math.IsNaN(float64(got))) {
		e.err = fmt.Errorf("interp: self-verification mismatch at point %d: reconstruction %g, bins regenerate %g: %w",
			idx, got, want, ErrCorrupt)
		return
	}
	e.vChecked++
}
