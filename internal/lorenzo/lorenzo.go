// Package lorenzo implements the first-order Lorenzo predictor of the SZ
// family (Di & Cappello, IPDPS 2016; the non-interpolation arm of the SZ3
// framework). Each point is predicted from its already-reconstructed
// lower-corner neighbours by inclusion–exclusion:
//
//	1D: p = d(i−1)
//	2D: p = d(i−1,j) + d(i,j−1) − d(i−1,j−1)
//	nD: p = Σ (−1)^(|S|+1) d(x − S) over non-empty corner subsets S
//
// Out-of-bounds and masked neighbours contribute zero, exactly as classic SZ
// handles boundaries. The package shares the bin-grid/literal contract of
// the interpolation engine, so CliZ's masking and bin classification apply
// unchanged; the auto-tuner can enable it as an extra fitting arm.
//
// Like the interpolation engine, the scan separates logical indices (the
// row-major traversal order that fixes bins and literals) from physical
// indices resolved through a grid.Layout, so a dimension permutation fuses
// into the corner offsets instead of requiring a transposed copy. Unmasked
// grids run a row kernel: the per-corner bounds tests are hoisted out of the
// innermost loop by filtering the corner set once per row, preserving the
// corner summation order so predictions stay bit-identical.
package lorenzo

import (
	"errors"
	"fmt"
	"math"

	"cliz/internal/grid"
	"cliz/internal/quant"
)

// ErrCorrupt is the sentinel wrapped by every decode-path failure in this
// package: malformed stream geometry, literal underrun, out-of-range bins,
// and self-verification mismatches. Callers classify hostile input with
// errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("lorenzo: corrupt compressed stream")

// Config parameterizes a Lorenzo run (mirrors interp.Config): masked points
// are neither predicted nor written, so they keep what the buffer held; the
// caller stores any fill value.
type Config struct {
	// EB is the absolute error bound (> 0).
	EB float64
	// Radius is the quantizer radius; 0 selects quant.DefaultRadius.
	Radius int32
	// Valid marks usable points in logical order; nil = all valid.
	Valid []bool
}

// Result mirrors interp.Result.
type Result struct {
	Bins     []int32
	Literals []float32
	Recon    []float32
}

type engine struct {
	dims     []int
	strides  []int // logical row-major strides
	pstrides []int // physical strides (layout)
	base     int   // physical index of the logical origin
	n        int
	vol      int
	cfg      Config
	work     []float32
	q        quant.Quantizer

	// corner offsets and signs for the inclusion-exclusion sum, in
	// ascending corner-mask order (the order fixes the float summation)
	offs  []int // logical offsets (mask validity lookups)
	poffs []int // physical offsets (value reads)
	signs []float64
	// per-corner coordinate deltas for bounds checking
	deltas [][]int

	// row-kernel corner lists for unmasked grids: the full set (interior
	// columns, j ≥ 1) and the subset with zero inner delta (column j = 0),
	// both only valid for rows whose outer coordinates are all ≥ 1.
	// rowP/rowS and row0P/row0S are scratch for boundary rows.
	fullP, in0P []int
	fullS, in0S []float64
	rowP, row0P []int
	rowS, row0S []float64

	decode bool
	bins   []int32
	lits   []float32
	litPos int
	err    error

	// verify mode (mirrors interp): replay the scan read-only over a
	// finished reconstruction and check sampled points regenerate exactly.
	verify   bool
	vEvery   int
	vSeen    int
	vChecked int
}

func newEngine(lay grid.Layout, cfg Config) (*engine, error) {
	vol := grid.Volume(lay.Dims)
	if vol == 0 {
		return nil, fmt.Errorf("lorenzo: empty grid %v: %w", lay.Dims, ErrCorrupt)
	}
	if !lay.Valid() {
		return nil, fmt.Errorf("lorenzo: invalid layout %v/%v: %w", lay.Dims, lay.Strides, ErrCorrupt)
	}
	if cfg.EB <= 0 {
		return nil, fmt.Errorf("lorenzo: error bound must be positive, got %g: %w", cfg.EB, ErrCorrupt)
	}
	if cfg.Valid != nil && len(cfg.Valid) != vol {
		return nil, fmt.Errorf("lorenzo: mask length %d != volume %d: %w", len(cfg.Valid), vol, ErrCorrupt)
	}
	if cfg.Radius == 0 {
		cfg.Radius = quant.DefaultRadius
	}
	e := &engine{
		dims:     lay.Dims,
		strides:  grid.Strides(lay.Dims),
		pstrides: lay.Strides,
		base:     lay.Base,
		n:        len(lay.Dims),
		vol:      vol,
		cfg:      cfg,
		q:        quant.New(cfg.EB, cfg.Radius),
	}
	// Enumerate the 2^n − 1 non-empty corner subsets. Ascending mask order
	// is the summation order on both the slow and row-kernel paths.
	for mask := 1; mask < 1<<e.n; mask++ {
		off, poff := 0, 0
		delta := make([]int, e.n)
		bits := 0
		for d := 0; d < e.n; d++ {
			if mask&(1<<d) != 0 {
				off += e.strides[d]
				poff += e.pstrides[d]
				delta[d] = 1
				bits++
			}
		}
		sign := 1.0
		if bits%2 == 0 {
			sign = -1
		}
		e.offs = append(e.offs, off)
		e.poffs = append(e.poffs, poff)
		e.signs = append(e.signs, sign)
		e.deltas = append(e.deltas, delta)
	}
	if cfg.Valid == nil {
		// Interior-row corner lists: every corner is in bounds once all
		// outer coordinates are ≥ 1; at column j = 0 only the corners that
		// do not reach along the inner axis apply.
		for c, delta := range e.deltas {
			e.fullP = append(e.fullP, e.poffs[c])
			e.fullS = append(e.fullS, e.signs[c])
			if delta[e.n-1] == 0 {
				e.in0P = append(e.in0P, e.poffs[c])
				e.in0S = append(e.in0S, e.signs[c])
			}
		}
		e.rowP = make([]int, 0, len(e.fullP))
		e.rowS = make([]float64, 0, len(e.fullS))
		e.row0P = make([]int, 0, len(e.in0P))
		e.row0S = make([]float64, 0, len(e.in0S))
	}
	return e, nil
}

// checkWork validates that the physical buffer covers every index the
// layout can touch (the layout comes from a blob header on decode).
func (e *engine) checkWork(buf []float32, what string) error {
	max := e.base
	for i, d := range e.dims {
		max += (d - 1) * e.pstrides[i]
	}
	if max >= len(buf) {
		return fmt.Errorf("lorenzo: %s length %d does not cover layout (max index %d): %w",
			what, len(buf), max, ErrCorrupt)
	}
	return nil
}

// Compress runs Lorenzo prediction + quantization over data.
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
// caller-provided slices (mirrors interp.CompressBuffers for the sectioned
// parallel path).
func CompressBuffers(data []float32, dims []int, cfg Config, bins []int32, recon []float32) ([]float32, error) {
	vol := grid.Volume(dims)
	if len(data) != vol {
		return nil, fmt.Errorf("lorenzo: data length %d != volume %d", len(data), vol)
	}
	if len(bins) != vol || len(recon) != vol {
		return nil, fmt.Errorf("lorenzo: buffer length %d/%d != volume %d", len(bins), len(recon), vol)
	}
	copy(recon, data)
	return CompressLayout(recon, grid.IdentityLayout(dims), cfg, bins)
}

// CompressLayout runs prediction + quantization in place through a layout:
// on entry work holds the original values at the layout's physical
// positions, on exit the reconstruction (mirrors interp.CompressLayout).
func CompressLayout(work []float32, lay grid.Layout, cfg Config, bins []int32) ([]float32, error) {
	e, err := newEngine(lay, cfg)
	if err != nil {
		return nil, err
	}
	if len(bins) != e.vol {
		return nil, fmt.Errorf("lorenzo: bins length %d != volume %d", len(bins), e.vol)
	}
	if err := e.checkWork(work, "work"); err != nil {
		return nil, err
	}
	// Masked points keep bin 0; without a mask the scan writes every bin.
	if cfg.Valid != nil {
		clear(bins)
	}
	e.work = work
	e.bins = bins
	e.run()
	if e.err != nil {
		return nil, e.err
	}
	return e.lits, nil
}

// Decompress reconstructs data from bins (grid order) and literals
// (scan order).
func Decompress(bins []int32, literals []float32, dims []int, cfg Config) ([]float32, error) {
	out := make([]float32, grid.Volume(dims))
	if err := DecompressBuffers(bins, literals, dims, cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressBuffers is Decompress writing into a caller-provided slice; the
// literal slice may extend past this run's consumption.
func DecompressBuffers(bins []int32, literals []float32, dims []int, cfg Config, out []float32) error {
	vol := grid.Volume(dims)
	if len(out) != vol {
		return fmt.Errorf("lorenzo: out length %d != volume %d: %w", len(out), vol, ErrCorrupt)
	}
	return DecompressLayout(bins, literals, grid.IdentityLayout(dims), cfg, out)
}

// DecompressLayout reconstructs through a layout: bins and literals are in
// logical order, the reconstruction lands at the layout's physical
// positions in out (mirrors interp.DecompressLayout).
func DecompressLayout(bins []int32, literals []float32, lay grid.Layout, cfg Config, out []float32) error {
	e, err := newEngine(lay, cfg)
	if err != nil {
		return err
	}
	if len(bins) != e.vol {
		return fmt.Errorf("lorenzo: bins length %d != volume %d: %w", len(bins), e.vol, ErrCorrupt)
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
	return nil
}

// VerifyBuffers replays the decode scan read-only over a finished
// reconstruction, checking that every `every`-th handled point (1 = all) is
// exactly regenerated from its recorded bin or literal. Sound because
// Lorenzo references are always lower-corner neighbours, finalized before
// the target point on both sides.
func VerifyBuffers(bins []int32, literals []float32, dims []int, cfg Config, recon []float32, every int) (int, error) {
	vol := grid.Volume(dims)
	if len(recon) != vol {
		return 0, fmt.Errorf("lorenzo: recon length %d != volume %d: %w", len(recon), vol, ErrCorrupt)
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
		return 0, fmt.Errorf("lorenzo: bins length %d != volume %d: %w", len(bins), e.vol, ErrCorrupt)
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

// run scans the grid in row-major order (identical on both sides). Masked
// grids take the general per-point path; unmasked grids run the row kernel.
func (e *engine) run() {
	if e.cfg.Valid != nil {
		e.runMasked()
		return
	}
	nInner := e.dims[e.n-1]
	rows := e.vol / nInner
	outer := make([]int, e.n-1)
	idx, idxP := 0, e.base
	pInner := e.pstrides[e.n-1]
	for r := 0; r < rows; r++ {
		e.runRow(idx, idxP, outer, nInner, pInner)
		if e.err != nil {
			return
		}
		idx += nInner
		for ax := e.n - 2; ax >= 0; ax-- {
			outer[ax]++
			idxP += e.pstrides[ax]
			if outer[ax] < e.dims[ax] {
				break
			}
			outer[ax] = 0
			idxP -= e.pstrides[ax] * e.dims[ax]
		}
	}
}

// runRow handles one inner row. For rows whose outer coordinates are all
// ≥ 1 the precomputed interior corner lists apply directly; boundary rows
// filter the corner set once (in ascending corner order, preserving the
// summation order) instead of re-testing bounds at every point.
func (e *engine) runRow(idx, idxP int, outer []int, nInner, pInner int) {
	p0, s0 := e.in0P, e.in0S
	pF, sF := e.fullP, e.fullS
	interior := true
	for _, c := range outer {
		if c < 1 {
			interior = false
			break
		}
	}
	if !interior {
		e.rowP, e.rowS = e.rowP[:0], e.rowS[:0]
		e.row0P, e.row0S = e.row0P[:0], e.row0S[:0]
		for c, delta := range e.deltas {
			ok := true
			for d := 0; d < e.n-1; d++ {
				if outer[d] < delta[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			e.rowP = append(e.rowP, e.poffs[c])
			e.rowS = append(e.rowS, e.signs[c])
			if delta[e.n-1] == 0 {
				e.row0P = append(e.row0P, e.poffs[c])
				e.row0S = append(e.row0S, e.signs[c])
			}
		}
		p0, s0 = e.row0P, e.row0S
		pF, sF = e.rowP, e.rowS
	}
	// Column 0: corners must not reach along the inner axis.
	pred := 0.0
	for k, off := range p0 {
		pred += s0[k] * float64(e.work[idxP-off])
	}
	e.handle(idx, idxP, pred)
	if e.err != nil {
		return
	}
	// Columns 1..nInner-1: the full (filtered) corner set.
	for j := 1; j < nInner; j++ {
		idx++
		idxP += pInner
		pred = 0.0
		for k, off := range pF {
			pred += sF[k] * float64(e.work[idxP-off])
		}
		e.handle(idx, idxP, pred)
		if e.err != nil {
			return
		}
	}
}

// runMasked is the general per-point scan for masked grids.
func (e *engine) runMasked() {
	coord := make([]int, e.n)
	idxP := e.base
	for idx := 0; idx < e.vol; idx++ {
		if e.cfg.Valid[idx] {
			e.handle(idx, idxP, e.predict(idx, idxP, coord))
			if e.err != nil {
				return
			}
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

// predict evaluates the inclusion-exclusion sum; neighbours outside the grid
// or masked contribute 0.
func (e *engine) predict(idx, idxP int, coord []int) float64 {
	p := 0.0
	for c, off := range e.offs {
		in := true
		for d, dd := range e.deltas[c] {
			if coord[d] < dd {
				in = false
				break
			}
		}
		if !in {
			continue
		}
		nb := idx - off
		if e.cfg.Valid != nil && !e.cfg.Valid[nb] {
			continue
		}
		p += e.signs[c] * float64(e.work[idxP-e.poffs[c]])
	}
	return p
}

func (e *engine) handle(idx, idxP int, pred float64) {
	if e.decode {
		bin := e.bins[idx]
		var lit float64
		if bin == 0 {
			if e.litPos >= len(e.lits) {
				e.err = fmt.Errorf("lorenzo: literal stream underrun at point %d: %w", idx, ErrCorrupt)
				return
			}
			lit = float64(e.lits[e.litPos])
			e.litPos++
		}
		if e.verify {
			if bin < 0 || bin >= 2*e.q.Radius() {
				e.err = fmt.Errorf("lorenzo: bin %d out of range at point %d: %w", bin, idx, ErrCorrupt)
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
				e.err = fmt.Errorf("lorenzo: self-verification mismatch at point %d: reconstruction %g, bins regenerate %g: %w",
					idx, got, want, ErrCorrupt)
				return
			}
			e.vChecked++
			return
		}
		e.work[idxP] = float32(e.q.Recover(pred, bin, lit))
		return
	}
	orig := float64(e.work[idxP])
	bin, recon, exact := e.q.Quantize(pred, orig)
	if exact {
		e.lits = append(e.lits, e.work[idxP])
	} else {
		e.work[idxP] = float32(recon)
	}
	e.bins[idx] = bin
}
