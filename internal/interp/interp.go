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
//     skipped entirely — they produce no quantization bin and are never
//     written; the caller stores any fill value.
//   - Per-level error bounds (QoZ): Config.LevelEBFactor scales the error
//     bound per level; factors ≤ 1 keep the global bound intact.
//
// The engine indexes a *logical* grid while addressing values through a
// grid.Layout, so a dimension permutation can be fused into the index
// arithmetic instead of materializing a transposed copy. Bins are stored in
// logical row-major order and literals in the literal order below, so both
// streams are identical either way.
//
// Within one (level, dimension d) pass no target references another, so a
// pass may visit its targets in any order. The engine visits them in
// physical memory order: the innermost loop runs along the logical
// dimension with the smallest physical stride, the others nest by
// decreasing stride. The literal stream does not follow the visit order: a
// pass's literals are in (line, x) order — lines of the pass ordered
// row-major over the dimensions other than d, x the coordinate along d —
// and the passes follow each other from the coarsest level to the finest
// and from dimension 0 up. The encoder buffers a pass's literal targets and
// emits them in that order at the end of the pass; the decoder defers its
// bin-0 targets and fills them from the stream in the same order.
package interp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"cliz/internal/grid"
	"cliz/internal/predict"
	"cliz/internal/quant"
)

// ErrCorrupt is returned by Decompress when the bin/literal streams are
// inconsistent with the grid.
var ErrCorrupt = errors.New("interp: corrupt compressed stream")

// Config parameterizes one engine run. The same Config must be used for
// Compress and Decompress. The engine only predicts: it writes no fill
// value, and masked points keep what the buffer held (the input values on
// compression, the caller's contents on decompression).
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
}

// Result is the compressor-side output of one engine run.
type Result struct {
	// Bins holds one quantization bin per grid point in row-major grid
	// order. Masked positions hold 0 and must be skipped when serializing.
	Bins []int32
	// Literals holds the exact values of unpredictable points in literal
	// order (see the package comment).
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

	// order lists the logical dimensions by decreasing physical stride
	// (extent-1 dimensions first): the loop nest of every pass, innermost
	// last.
	order []int
	// Per-dimension scratch of the running pass, indexed by logical
	// dimension: target count, logical and physical target step, literal
	// key weight and the loop position.
	cnt, lstep, pstep, kw, pos []int

	// The running pass: the extent of its dimension d, the logical and
	// physical reference steps along d, and the stride.
	dimD, stepD, pstepD, stride int
	// The running pass's rows: their length and the step from one target
	// to the next in logical index, physical index, x (the coordinate along
	// d) and literal key.
	rowLen, tstep, ptstep, xstep, kstep int

	// deferred holds the running pass's literal targets (encode) or bin-0
	// targets (decode) until flush puts them in literal order. run borrows
	// it from deferredPool.
	deferred []deferred

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

// deferred is a target of the running pass awaiting its place in the
// literal stream: its literal key and its logical and physical index.
type deferred struct{ key, idx, idxP int }

// deferredPool recycles the engines' deferred-target buffers, so a run
// allocates none once the pool is warm.
var deferredPool = sync.Pool{New: func() any { return new([]deferred) }}

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
	n := len(lay.Dims)
	scratch := make([]int, 6*n)
	order := scratch[:n]
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(min(lay.Dims[a], 2), min(lay.Dims[b], 2)); c != 0 {
			return c
		}
		return cmp.Compare(lay.Strides[b], lay.Strides[a])
	})
	return &engine{
		dims:     lay.Dims,
		strides:  grid.Strides(lay.Dims),
		pstrides: lay.Strides,
		base:     lay.Base,
		n:        n,
		vol:      vol,
		cfg:      cfg,
		order:    order,
		cnt:      scratch[n : 2*n],
		lstep:    scratch[2*n : 3*n],
		pstep:    scratch[3*n : 4*n],
		kw:       scratch[4*n : 5*n],
		pos:      scratch[5*n:],
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
	return e.lits, nil
}

// Decompress reconstructs data from grid-ordered bins and literals in
// literal order. bins must have one entry per grid point (entries at masked
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

// run executes the full traversal (both directions share it, guaranteeing
// symmetry).
func (e *engine) run() {
	buf := deferredPool.Get().(*[]deferred)
	e.deferred = (*buf)[:0]
	defer func() {
		*buf = e.deferred[:0]
		deferredPool.Put(buf)
	}()
	levels := Levels(e.dims)
	// The origin is handled first, predicted as 0.
	e.q = e.quantizerFor(levels)
	if e.valid(0) {
		e.handle(0, e.base, 0, 0)
	}
	e.flush()
	for level := levels; level >= 1 && e.err == nil; level-- {
		e.q = e.quantizerFor(level)
		stride := 1 << (level - 1)
		for d := 0; d < e.n && e.err == nil; d++ {
			e.pass(d, stride)
			e.flush()
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

// pass predicts, along dimension d, every point whose d-coordinate is an
// odd multiple of stride, whose earlier coordinates are multiples of stride,
// and whose later coordinates are multiples of 2·stride. It visits them in
// rows along the innermost dimension of e.order, the other dimensions
// nesting outside it, with an odometer that carries the logical index, the
// physical index and the literal key of each row's first target in
// lockstep. A target's literal key is its rank in (line, x) order.
func (e *engine) pass(d, stride int) {
	dimD := e.dims[d]
	if stride >= dimD {
		return
	}
	e.dimD, e.stride = dimD, stride
	e.stepD, e.pstepD = e.strides[d]*stride, e.pstrides[d]*stride
	cnt, lstep, pstep, kw, pos := e.cnt, e.lstep, e.pstep, e.kw, e.pos
	for k, ext := range e.dims {
		start, step := 0, stride
		switch {
		case k == d:
			start, step = stride, 2*stride
		case k > d:
			step = 2 * stride
		}
		cnt[k] = (ext - start + step - 1) / step
		lstep[k] = e.strides[k] * step
		pstep[k] = e.pstrides[k] * step
		pos[k] = 0
	}
	kw[d] = 1
	w := cnt[d]
	for k := e.n - 1; k >= 0; k-- {
		if k != d {
			kw[k] = w
			w *= cnt[k]
		}
	}

	outer, inner := e.order[:e.n-1], e.order[e.n-1]
	e.rowLen, e.tstep, e.ptstep, e.xstep, e.kstep = cnt[inner], lstep[inner], pstep[inner], 0, kw[inner]
	// The interior of a row — its targets lo..hi−1, whose references along
	// d all lie in the grid — runs the fused kernel. A row along d (a line)
	// has the same interior in every row of the pass: it leaves out the
	// cubic targets whose left references underrun the line and the targets
	// whose right references overrun it. A row across d shares one x, so it
	// is interior as a whole or not at all.
	reach := stride // distance from a target to its furthest reference
	if e.cfg.Fitting == predict.Cubic {
		reach = 3 * stride
	}
	lo, hi := 0, 0
	if inner == d {
		e.xstep = 2 * stride
		lo = min((reach-stride)/(2*stride), e.rowLen) // reach−stride is 0 or 2·stride
		hi = lo
		if rest := dimD - reach - stride; rest > 0 {
			hi = min(max((rest+2*stride-1)/(2*stride), lo), e.rowLen)
		}
	}
	idx, idxP, x, key := e.stepD, e.base+e.pstepD, stride, 0
	for {
		if inner != d {
			x = stride + 2*stride*pos[d]
			lo, hi = e.rowLen, e.rowLen
			if x >= reach && x+reach < dimD {
				lo = 0
			}
		}
		e.row(idx, idxP, x, key, lo, hi)
		if e.err != nil {
			return
		}
		i := len(outer) - 1
		for ; i >= 0; i-- {
			k := outer[i]
			pos[k]++
			idx += lstep[k]
			idxP += pstep[k]
			key += kw[k]
			if pos[k] < cnt[k] {
				break
			}
			pos[k] = 0
			idx -= lstep[k] * cnt[k]
			idxP -= pstep[k] * cnt[k]
			key -= kw[k] * cnt[k]
		}
		if i < 0 {
			return
		}
	}
}

// row runs the row whose first target is at logical index idx, physical
// index idxP, with coordinate x along the pass dimension and literal key
// key: its targets lo..hi−1 through the fused kernel for the fitting and
// direction (kernel.go), the rest through the general point predictor.
func (e *engine) row(idx, idxP, x, key, lo, hi int) {
	if lo > 0 {
		e.points(idx, idxP, x, key, lo)
	}
	if hi > lo && e.err == nil {
		e.kernel(idx+lo*e.tstep, idxP+lo*e.ptstep, x+lo*e.xstep, key+lo*e.kstep, hi-lo)
	}
	if n := e.rowLen; hi < n {
		e.points(idx+hi*e.tstep, idxP+hi*e.ptstep, x+hi*e.xstep, key+hi*e.kstep, n-hi)
	}
}

// points runs the general point predictor over n targets of a row from
// the one at logical index idx, physical index idxP, coordinate x and
// literal key key.
func (e *engine) points(idx, idxP, x, key, n int) {
	for ; n > 0 && e.err == nil; n-- {
		e.predictPoint(idx, idxP, x, key)
		idx, idxP, x, key = idx+e.tstep, idxP+e.ptstep, x+e.xstep, key+e.kstep
	}
}

// predictPoint predicts the target at logical index idx (physical idxP)
// whose coordinate along the pass dimension is x, with literal key key.
// References sit at coordinates x ± stride and (for cubic) x ± 3·stride
// (paper Fig. 6); references that fall outside the grid or on masked points
// are flagged invalid and the fitting degrades via Formula (2).
func (e *engine) predictPoint(idx, idxP, x, key int) {
	if !e.valid(idx) {
		return
	}
	dimD, stepD, pstepD, stride := e.dimD, e.stepD, e.pstepD, e.stride
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
	e.handle(idx, idxP, key, pred)
}

// handle quantizes (compress) or recovers (decompress) the target at
// logical index idx, reading and writing the value at physical index idxP.
// A literal target is deferred under key until flush.
func (e *engine) handle(idx, idxP, key int, pred float64) {
	if e.decode {
		bin := e.bins[idx]
		if bin == 0 {
			e.deferLit(key, idx, idxP)
			return
		}
		if e.verify {
			e.checkPoint(idx, idxP, pred, bin, 0)
			return
		}
		e.work[idxP] = float32(e.q.Recover(pred, bin, 0))
		return
	}
	bin, recon, exact := e.q.Quantize(pred, float64(e.work[idxP]))
	if exact {
		// work[idxP] keeps the original value for flush to emit.
		e.deferred = append(e.deferred, deferred{key, idx, idxP})
	} else {
		e.work[idxP] = float32(recon)
	}
	e.bins[idx] = bin
}

// deferLit defers a decode-side bin-0 target of the running pass. Once the
// pass has deferred as many targets as literals remain, it fails with
// ErrCorrupt instead, so the buffer never outgrows the literal stream.
func (e *engine) deferLit(key, idx, idxP int) bool {
	if len(e.deferred) >= len(e.lits)-e.litPos {
		e.err = errUnderrun(idx)
		return false
	}
	e.deferred = append(e.deferred, deferred{key, idx, idxP})
	return true
}

// flush ends a pass: it puts the deferred targets in literal (key) order,
// then appends their original values to the literal stream (encode) or
// gives each the next literal (decode). No target of a pass references
// another, so deferring a value to the end of its pass changes nothing
// else.
func (e *engine) flush() {
	ds := e.deferred
	if len(ds) == 0 || e.err != nil {
		return
	}
	byKey := func(a, b deferred) int { return cmp.Compare(a.key, b.key) }
	if !slices.IsSortedFunc(ds, byKey) {
		slices.SortFunc(ds, byKey)
	}
	if !e.decode {
		for _, t := range ds {
			e.lits = append(e.lits, e.work[t.idxP])
		}
	} else {
		// deferLit kept len(ds) within the literals left.
		lits := e.lits[e.litPos : e.litPos+len(ds)]
		e.litPos += len(ds)
		for i, t := range ds {
			if e.verify {
				if e.checkPoint(t.idx, t.idxP, 0, 0, float64(lits[i])); e.err != nil {
					return
				}
				continue
			}
			// Through float64 as quant.Recover does, so a signalling-NaN
			// literal is quieted exactly as a recovered value would be.
			e.work[t.idxP] = float32(float64(lits[i]))
		}
	}
	e.deferred = ds[:0]
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
