package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cliz/internal/classify"
	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/grid"
	"cliz/internal/lossless"
	"cliz/internal/mask"
	"cliz/internal/predict"
	"cliz/internal/quant"
	"cliz/internal/symhist"
	"cliz/internal/trace"
)

// Options tune implementation knobs that are not part of the paper's
// pipeline search space.
type Options struct {
	// Radius is the quantizer radius; 0 selects quant.DefaultRadius.
	Radius int32
	// Lambda is the classification threshold; 0 selects the Theorem 2
	// optimum 0.4.
	Lambda float64
	// Backend is the lossless stage ("Zstd" in the paper). Nil, the
	// default, chooses per section (lossless.Encode): raw when the
	// entropy-coded payload's byte entropy is at least 7.9 bits/byte, where
	// Flate cannot pay for itself, flate level 6 otherwise. A non-nil codec
	// codes every bins and literals section.
	Backend lossless.Codec
	// Entropy selects the symbol coder for quantization bins: Huffman
	// (paper default), rANS, or interleaved rANS (same size class as rANS,
	// faster decode). Decoding is driven by the block itself, so blobs
	// written with any coder always decode.
	Entropy entropy.Kind
	// Trace receives per-stage records (wall time, byte counts, bin
	// histogram summaries). Nil — the default — disables collection; the
	// hooks are then allocation-free no-ops.
	Trace trace.Collector
	// Workers bounds intra-blob parallelism: sectioned prediction, sharded
	// entropy coding, and parallel transposition. <= 1 (the default) keeps
	// every stage on the calling goroutine. Output is deterministic for a
	// fixed Workers value; Workers = 1 reproduces the serial v1 bitstream
	// except for the version byte and section-count field.
	Workers int
	// MaterializedPermute forces the legacy materialized transpose in front
	// of the predictor even when the permutation and fusion could be folded
	// into the engines' index arithmetic (the default fused path). Blobs are
	// bit-identical either way — the flag exists for the fused-vs-legacy
	// equivalence suites and as an escape hatch.
	MaterializedPermute bool
	// Interrupt, when non-nil, is polled at stage, chunk and tuner-candidate
	// boundaries; a non-nil return aborts the run with that error wrapped.
	// This is how per-request deadlines and cancellation reach a long
	// compression from a server context without adding locks to the kernels
	// (the polling granularity is a pipeline stage, not a point).
	Interrupt func() error
	// sectionLeadFloor overrides minSectionLead so package tests can force
	// sectioned prediction on small fixtures; 0 (always, outside tests)
	// selects the default.
	sectionLeadFloor int
}

func (o Options) radius() int32 {
	if o.Radius == 0 {
		return quant.DefaultRadius
	}
	return o.Radius
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// validity abstracts over the two mask representations: the horizontal
// mask-map of real climate files (compact, broadcast across leading dims)
// and an arbitrary per-point bitmap (used for the auto-tuner's concatenated
// sample blocks, whose horizontal windows differ block to block).
type validity struct {
	hm  *mask.Map
	pts []bool
}

func (v validity) none() bool { return v.hm == nil && v.pts == nil }

// bitmap materializes the per-point validity for dims (nil if unmasked).
func (v validity) bitmap(dims []int) ([]bool, error) {
	switch {
	case v.pts != nil:
		return v.pts, nil
	case v.hm != nil:
		return v.hm.Broadcast(dims)
	}
	return nil, nil
}

// Compress encodes ds.Data under the absolute error bound eb with the given
// pipeline. The blob is self-contained: it embeds the mask and (for periodic
// pipelines) the compressed template.
func Compress(ds *dataset.Dataset, eb float64, p Pipeline, opt Options) ([]byte, error) {
	blob, _, err := CompressWithRecon(ds, eb, p, opt)
	return blob, err
}

// CompressWithRecon also returns the reconstruction the decompressor will
// produce, sparing experiments a decode pass.
func CompressWithRecon(ds *dataset.Dataset, eb float64, p Pipeline, opt Options) ([]byte, []float32, error) {
	if err := ds.Validate(); err != nil {
		return nil, nil, err
	}
	var v validity
	if p.UseMask {
		v.hm = ds.Mask
	}
	total := trace.Begin(opt.Trace, "total")
	blob, recon, err := compressGeneral(ds.Data, ds.Dims, v, eb, p, ds.FillValue, opt)
	if err == nil {
		total.EndFull(int64(len(ds.Data))*4, int64(len(blob)), int64(len(ds.Data)), nil)
	}
	return blob, recon, err
}

// ErrInterrupted marks an abort requested through Options.Interrupt /
// DecompressOptions.Interrupt. The hook's own error (context.Canceled,
// context.DeadlineExceeded, ...) stays reachable through errors.Is too.
var ErrInterrupted = errors.New("core: interrupted")

// interrupted polls an Interrupt hook.
func interrupted(poll func() error) error {
	if poll == nil {
		return nil
	}
	if err := poll(); err != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, err)
	}
	return nil
}

func compressGeneral(data []float32, dims []int, v validity, eb float64,
	p Pipeline, fill float32, opt Options) ([]byte, []float32, error) {

	pr, err := predictGeneral(data, dims, v, eb, p, fill, opt, nil)
	if err != nil {
		return nil, nil, err
	}
	blob, err := pr.encode(p.Classify)
	if err != nil {
		return nil, nil, err
	}
	recon, err := pr.recon()
	if err != nil {
		return nil, nil, err
	}
	return blob, recon, nil
}

// prediction is a pipeline's input carried through every stage up to the
// quantization bins: the periodic template and residual, the permutation,
// and prediction itself. Classification only post-processes bins, and the
// template pipeline never classifies, so one prediction serves a pipeline
// with and without classification; encode writes either blob. Encode the
// unclassified blob first: a classified encode shifts the bins in place.
type prediction struct {
	unit *unitPrediction // the whole unit, or the periodic residual
	per  *periodicParts  // nil unless the periodic wrapper applies
}

// periodicParts is what a periodic blob adds around its residual unit.
type periodicParts struct {
	h         header // wrapper header; encode sets flagClassify
	tmplBlob  []byte
	tmplRecon []float32
	valid     []bool
}

// predictGeneral validates p against the input and runs it up to the bins.
// m, when non-nil, supplies and keeps candidate-invariant intermediates
// (see tuneMemo).
func predictGeneral(data []float32, dims []int, v validity, eb float64,
	p Pipeline, fill float32, opt Options, m *tuneMemo) (*prediction, error) {

	if err := interrupted(opt.Interrupt); err != nil {
		return nil, err
	}
	if eb <= 0 {
		return nil, fmt.Errorf("core: error bound must be positive, got %g", eb)
	}
	if err := p.Validate(len(dims)); err != nil {
		return nil, err
	}
	if v.none() {
		p.UseMask = false
	}
	if p.Period >= 2 && dims[0] >= 2*p.Period {
		return predictPeriodic(data, dims, v, eb, p, fill, opt, m)
	}
	p.Period = 0
	u, err := predictUnit(data, dims, v, eb, p, fill, opt, m)
	if err != nil {
		return nil, err
	}
	return &prediction{unit: u}, nil
}

// encode writes the blob with or without classification.
func (pr *prediction) encode(classified bool) ([]byte, error) {
	res, err := pr.unit.encode(classified)
	if err != nil || pr.per == nil {
		return res, err
	}
	h := pr.per.h
	if classified {
		h.flags |= flagClassify
	}
	w := blobWriter{h: h}
	w.add(secTemplate, pr.per.tmplBlob)
	w.add(secResidual, res)
	return w.bytes(), nil
}

// recon returns the reconstruction the decoder will produce.
func (pr *prediction) recon() ([]float32, error) {
	r, err := pr.unit.recon()
	if err != nil || pr.per == nil {
		return r, err
	}
	h := pr.per.h
	recon := addTemplate(r, pr.per.tmplRecon, h.dims, h.pipe.Period)
	if pr.per.valid != nil {
		for i, ok := range pr.per.valid {
			if !ok {
				recon[i] = h.fill
			}
		}
	}
	return recon, nil
}

// predictPeriodic implements periodic component extraction (paper §VI-D):
// the template (per-phase mean) and the residual are compressed as two
// nested blobs. The residual is computed against the template's *lossy
// reconstruction*, so the residual's error bound alone bounds the composed
// error and both components may use the full budget. The template blob is
// final here; only the residual is left to encode.
func predictPeriodic(data []float32, dims []int, v validity, eb float64,
	p Pipeline, fill float32, opt Options, m *tuneMemo) (*prediction, error) {

	valid, err := v.bitmap(dims)
	if err != nil {
		return nil, err
	}
	sp := trace.Begin(opt.Trace, "template-build")
	tmplData, tmplDims, tmplValid := m.template(data, dims, valid, p.Period, fill)
	sp.EndFull(int64(len(data))*4, int64(len(tmplData))*4, int64(len(tmplData)), nil)
	tv := validity{}
	if v.hm != nil && len(dims) >= 3 {
		tv.hm = v.hm // horizontal masks broadcast identically over phases
	} else if tmplValid != nil {
		// Point-mask inputs — or a rank-2 mask, which would span the time
		// axis — carry the template's own validity bitmap instead.
		tv.pts = tmplValid
	}
	tp := templatePipeline(p, len(tmplDims))
	topt := opt
	topt.Trace = trace.Prefixed(opt.Trace, "template")
	tmplBlob, tmplRecon, err := compressUnit(tmplData, tmplDims, tv, eb, tp, fill, topt, m)
	if err != nil {
		return nil, fmt.Errorf("core: template: %w", err)
	}
	sp = trace.Begin(opt.Trace, "residual-build")
	residual := subtractTemplate(data, tmplRecon, dims, p.Period, valid, fill)
	sp.EndFull(int64(len(data))*4, int64(len(residual))*4, int64(len(residual)), nil)
	// The decoder composes fl32(residual′ + template), and the residual
	// itself is fl32(data − template): two float32 roundings the residual's
	// verified bound does not see. Budget them out of the residual's error
	// bound; if the bound is too tight to afford the slack, periodic
	// extraction cannot guarantee it — fall back to direct compression.
	slack := compositionSlack(data, tmplRecon, dims, p.Period, valid)
	if slack >= eb/2 {
		up := p
		up.Period = 0
		up.Template = nil
		u, err := predictUnit(data, dims, v, eb, up, fill, opt, m)
		if err != nil {
			return nil, err
		}
		return &prediction{unit: u}, nil
	}
	rp := p
	rp.Period = 0
	rp.Template = nil
	ropt := opt
	ropt.Trace = trace.Prefixed(opt.Trace, "residual")
	u, err := predictUnit(residual, dims, v, eb-slack, rp, fill, ropt, m)
	if err != nil {
		return nil, fmt.Errorf("core: residual: %w", err)
	}
	h := header{
		flags:     flagPeriodic | maskFlags(v) | fitFlag(p),
		eb:        eb,
		fill:      fill,
		radius:    opt.radius(),
		dims:      dims,
		pipe:      p,
		psections: 1, // periodic wrappers carry no bin streams of their own
	}
	return &prediction{unit: u, per: &periodicParts{
		h: h, tmplBlob: tmplBlob, tmplRecon: tmplRecon, valid: valid,
	}}, nil
}

// compositionSlack bounds the float32 rounding the periodic composition
// adds on top of the residual's verified error: one rounding when the
// residual is formed (data − template) and one when the decoder re-adds the
// template. Each is at most half a ulp of the largest magnitude involved.
func compositionSlack(data, tmplRecon []float32, dims []int, period int, valid []bool) float64 {
	nT := dims[0]
	plane := len(data) / nT
	maxAbs := 0.0
	for t := 0; t < nT; t++ {
		toff := (t % period) * plane
		for p := 0; p < plane; p++ {
			idx := t*plane + p
			if valid != nil && !valid[idx] {
				continue
			}
			if a := math.Abs(float64(data[idx])); a > maxAbs {
				maxAbs = a
			}
			if a := math.Abs(float64(tmplRecon[toff+p])); a > maxAbs {
				maxAbs = a
			}
		}
	}
	// 2 roundings × ulp(maxAbs)/2, doubled for safety: 2·maxAbs·2⁻²³.
	return maxAbs * (1.0 / (1 << 22))
}

func maskFlags(v validity) byte {
	switch {
	case v.hm != nil:
		return flagMask
	case v.pts != nil:
		return flagPointMask
	}
	return 0
}

func fitFlag(p Pipeline) byte {
	switch p.Fitting {
	case predict.Cubic:
		return flagCubic
	case predict.Lorenzo:
		return flagLorenzo
	}
	return 0
}

// templatePipeline derives the pipeline for the template: either the tuned
// one carried by p.Template, or p itself stripped of period/classification.
func templatePipeline(p Pipeline, rank int) Pipeline {
	var tp Pipeline
	if p.Template != nil {
		tp = *p.Template
	} else {
		tp = p
		tp.Classify = false
	}
	tp.Period = 0
	tp.Template = nil
	tp.UseMask = p.UseMask
	if len(tp.Perm) != rank || !grid.ValidPerm(tp.Perm, rank) {
		tp.Perm = identityPerm(rank)
	}
	if !tp.Fusion.Valid(rank) {
		tp.Fusion = grid.NoFusion(rank)
	}
	return tp
}

// levelEBFactor builds the per-level error-bound scaling for a level alpha:
// eb_ℓ = eb / min(α^(ℓ−1), 4). nil (flat) for α ≤ 1.
func levelEBFactor(alpha float64) func(int) float64 {
	if alpha <= 1 {
		return nil
	}
	return func(level int) float64 {
		// A single-point dataset has Levels() == 0, so the origin is handled
		// at level 0; without the clamp α^(level−1) dips below 1 and the
		// factor LOOSENS the bound by α, violating the contract.
		if level < 1 {
			level = 1
		}
		return 1 / math.Min(math.Pow(alpha, float64(level-1)), 4)
	}
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// compressUnit compresses a single (non-periodic) compression unit.
func compressUnit(data []float32, dims []int, v validity, eb float64,
	p Pipeline, fill float32, opt Options, m *tuneMemo) ([]byte, []float32, error) {

	u, err := predictUnit(data, dims, v, eb, p, fill, opt, m)
	if err != nil {
		return nil, nil, err
	}
	blob, err := u.encode(p.Classify)
	if err != nil {
		return nil, nil, err
	}
	recon, err := u.recon()
	if err != nil {
		return nil, nil, err
	}
	return blob, recon, nil
}

// unitPrediction is one compression unit after prediction: the bins,
// literals and reconstruction, with what the blob header records.
type unitPrediction struct {
	dims   []int
	v      validity
	eb     float64
	fill   float32
	p      Pipeline // p.Classify is ignored: encode takes it
	opt    Options
	m      *tuneMemo
	P      int // predict sections
	bins   []int32
	lits   []float32
	tvalid []bool
	// work is the reconstruction, in the original layout when the
	// permutation was fused and transposed to tdims otherwise.
	work  []float32
	tdims []int
	// litEnc is the literals section, coded once for every encode.
	litEnc []byte
	// shifted records that a classified encode has shifted bins in place.
	shifted bool
}

// errBinsShifted reports an encode after a classified encode of the same
// unit, whose shifted bins no longer describe the prediction.
var errBinsShifted = errors.New("core: bins already shifted by a classified encode")

// predictUnit runs one unit's permutation and prediction.
func predictUnit(data []float32, dims []int, v validity, eb float64,
	p Pipeline, fill float32, opt Options, m *tuneMemo) (*unitPrediction, error) {

	if err := interrupted(opt.Interrupt); err != nil {
		return nil, err
	}
	validOrig, err := v.bitmap(dims)
	if err != nil {
		return nil, err
	}
	W := opt.workers()
	// Fused path (default): the permutation and fusion become a Layout the
	// engines traverse directly, so the float data is never transposed —
	// only the compact bool mask is, keeping the bins/mask/classify streams
	// in logical (post-permutation) order. The legacy path materializes the
	// transpose; both produce bit-identical blobs.
	lay, fused := grid.FusedLayout(dims, p.Perm, p.Fusion)
	if opt.MaterializedPermute {
		fused = false
	}
	var tdims []int
	var work []float32
	var tvalid []bool
	if fused {
		if validOrig != nil {
			sp := trace.Begin(opt.Trace, "mask")
			tvalid, err = m.transposedValidity(validOrig, dims, p.Perm, W)
			if err != nil {
				return nil, err
			}
			sp.EndFull(int64(len(validOrig)), int64(len(tvalid)), int64(len(tvalid)), nil)
		}
		work = make([]float32, len(data))
		copy(work, data)
	} else {
		sp := trace.Begin(opt.Trace, "permute")
		tdims = grid.PermuteDims(dims, p.Perm)
		work, err = grid.TransposeWorkers(data, dims, p.Perm, W)
		if err != nil {
			return nil, err
		}
		if validOrig != nil {
			tvalid, err = m.transposedValidity(validOrig, dims, p.Perm, W)
			if err != nil {
				return nil, err
			}
		}
		sp.EndFull(int64(len(data))*4, int64(len(work))*4, int64(len(work)), nil)
		lay = grid.IdentityLayout(p.Fusion.Apply(tdims))
	}
	fdims := lay.Dims
	P := sectionCount(W, fdims, opt.sectionLeadFloor)
	// The sectioned fan-out gets its own span name so the per-shard spans
	// (which Aggregate folds into one "predict" row) are not double-counted.
	predName := "predict"
	if P > 1 {
		predName = "predict-fanout"
	}
	sp := trace.Begin(opt.Trace, predName)
	bins, lits, err := predictSections(work, lay, tvalid, eb, p, fill, opt, P)
	if err != nil {
		return nil, err
	}
	sp.Stop() // binStats is trace-only work, not prediction
	sp.EndFull(int64(len(work))*4, 0, int64(len(bins)), binStats(bins, lits, tvalid, opt.Trace))
	if err := interrupted(opt.Interrupt); err != nil {
		return nil, err
	}
	return &unitPrediction{
		dims: dims, v: v, eb: eb, fill: fill, p: p, opt: opt, m: m, P: P,
		bins: bins, lits: lits, tvalid: tvalid, work: work, tdims: tdims,
	}, nil
}

// encode writes the unit's blob with or without classification. A
// classified encode shifts the bins in place, so it must come last.
func (u *unitPrediction) encode(classified bool) ([]byte, error) {
	if u.shifted {
		return nil, errBinsShifted
	}
	p, opt, v, bins, tvalid := u.p, u.opt, u.v, u.bins, u.tvalid
	p.Classify = classified
	W := opt.workers()
	h := header{
		flags:     maskFlags(v) | fitFlag(p),
		eb:        u.eb,
		fill:      u.fill,
		radius:    opt.radius(),
		dims:      u.dims,
		pipe:      p,
		psections: u.P,
	}
	if p.Classify {
		h.flags |= flagClassify
	}
	w := blobWriter{h: h}
	switch {
	case v.hm != nil:
		sp := trace.Begin(opt.Trace, "mask")
		ms := v.hm.Serialize()
		w.add(secMask, ms)
		sp.EndBytes(int64(len(v.hm.Regions))*4, int64(len(ms)))
	case v.pts != nil:
		sp := trace.Begin(opt.Trace, "mask")
		ms := u.m.packedMask(v.pts)
		w.add(secMask, ms)
		sp.EndBytes(int64(len(v.pts)), int64(len(ms)))
	}
	be := opt.Backend
	if p.Classify {
		sp := trace.Begin(opt.Trace, "classify")
		nLat, nLon := latLon(u.dims)
		colOf := u.m.columns(u.dims, p.Perm)
		cls := classify.Analyze(bins, colOf, nLat*nLon, tvalid,
			classify.Params{Radius: opt.radius(), Lambda: opt.Lambda})
		classify.ShiftBins(bins, colOf, tvalid, cls)
		u.shifted = true
		a, b := classify.Split(bins, colOf, tvalid, cls)
		meta := classify.PackMeta(cls)
		w.add(secClassMeta, meta)
		sp.EndFull(int64(len(bins))*4, int64(len(meta)), int64(len(a)+len(b)), nil)
		sp = trace.Begin(opt.Trace, "entropy")
		encA := entropy.EncodeBlockSharded(opt.Entropy, a, W)
		encB := entropy.EncodeBlockSharded(opt.Entropy, b, W)
		sp.Stop()
		sp.EndFull(int64(len(a)+len(b))*4, int64(len(encA)+len(encB)),
			int64(len(a)+len(b)), entropyStats(opt.Trace, encA, encB))
		sp = trace.Begin(opt.Trace, "lossless")
		lsA := lossless.Encode(be, encA)
		lsB := lossless.Encode(be, encB)
		w.add(secBinsA, lsA)
		w.add(secBinsB, lsB)
		sp.EndBytes(int64(len(encA)+len(encB)), int64(len(lsA)+len(lsB)))
	} else {
		symsp := symsPool.Get().(*[]uint32)
		syms := slices.Grow((*symsp)[:0], len(bins))
		for i, bin := range bins {
			if tvalid != nil && !tvalid[i] {
				continue
			}
			syms = append(syms, uint32(bin))
		}
		sp := trace.Begin(opt.Trace, "entropy")
		enc := entropy.EncodeBlockSharded(opt.Entropy, syms, W)
		sp.Stop()
		sp.EndFull(int64(len(syms))*4, int64(len(enc)), int64(len(syms)),
			entropyStats(opt.Trace, enc))
		*symsp = syms[:0]
		symsPool.Put(symsp)
		sp = trace.Begin(opt.Trace, "lossless")
		ls := lossless.Encode(be, enc)
		w.add(secBins, ls)
		sp.EndBytes(int64(len(enc)), int64(len(ls)))
	}
	sp := trace.Begin(opt.Trace, "literals")
	if u.litEnc == nil {
		u.litEnc = lossless.Encode(be, float32sToBytes(u.lits))
	}
	w.add(secLiterals, u.litEnc)
	sp.EndFull(int64(len(u.lits))*4, int64(len(u.litEnc)), int64(len(u.lits)), nil)
	return w.bytes(), nil
}

// recon returns the unit's reconstruction in the original array layout.
// The engines reconstructed in place: under the fused layout work already
// is that, otherwise it is transposed back.
func (u *unitPrediction) recon() ([]float32, error) {
	if u.tdims == nil {
		return u.work, nil
	}
	opt := u.opt
	sp := trace.Begin(opt.Trace, "unpermute")
	recon, err := grid.TransposeWorkers(u.work, u.tdims, grid.InversePerm(u.p.Perm), opt.workers())
	if err != nil {
		return nil, err
	}
	sp.EndFull(int64(len(u.work))*4, int64(len(recon))*4, int64(len(recon)), nil)
	return recon, nil
}

// binStats summarizes the quantization-bin histogram for the trace: distinct
// bin count, Shannon entropy in bits/symbol, the share of the most frequent
// bin, and the literal (unpredictable) count. It runs only when a collector
// is attached; the nil-trace hot path never touches it.
func binStats(bins []int32, literals []float32, tvalid []bool, c trace.Collector) []trace.KV {
	if c == nil {
		return nil
	}
	symsp := symsPool.Get().(*[]uint32)
	syms := slices.Grow((*symsp)[:0], len(bins))
	for i, b := range bins {
		if tvalid != nil && !tvalid[i] {
			continue
		}
		syms = append(syms, uint32(b))
	}
	h := symhist.Count(syms)
	h.Release() // only the frequencies are read
	n := len(syms)
	*symsp = syms[:0]
	symsPool.Put(symsp)
	if n == 0 {
		return []trace.KV{{Key: "literals", Value: float64(len(literals))}}
	}
	top := uint64(0)
	entropyBits := 0.0
	for _, cnt := range h.Freqs {
		top = max(top, cnt)
		pr := float64(cnt) / float64(n)
		entropyBits -= pr * math.Log2(pr)
	}
	return []trace.KV{
		{Key: "distinct_bins", Value: float64(len(h.Freqs))},
		{Key: "entropy_bits", Value: entropyBits},
		{Key: "top1_share", Value: float64(top) / float64(n)},
		{Key: "literals", Value: float64(len(literals))},
	}
}

// entropyStats splits encoded symbol blocks into code-table and payload
// bytes (Huffman tree size vs bitstream size). Collector-gated like binStats.
func entropyStats(c trace.Collector, blocks ...[]byte) []trace.KV {
	if c == nil {
		return nil
	}
	table, stream := 0, 0
	for _, b := range blocks {
		if _, t, s, ok := entropy.BlockStats(b); ok {
			table += t
			stream += s
		}
	}
	return []trace.KV{
		{Key: "table_bytes", Value: float64(table)},
		{Key: "stream_bytes", Value: float64(stream)},
	}
}

// DecompressOptions tune the decode side. The zero value is the serial
// default.
type DecompressOptions struct {
	// Workers bounds intra-blob decode parallelism (sharded entropy decode,
	// sectioned reconstruction, parallel transposition). The reconstruction
	// partition comes from the blob header, so the output is identical for
	// every worker count.
	Workers int
	// Trace receives per-stage decode records; nil disables collection.
	Trace trace.Collector
	// BoundCheckEvery > 0 enables decode-time bound self-verification: the
	// prediction traversal is replayed read-only over the finished
	// reconstruction and every BoundCheckEvery-th point is checked to be
	// exactly regenerated from its recorded quantization bin (or literal).
	// 1 checks every point. Combined with v3 checksums this turns "the
	// bitstream decoded" into "the decode satisfies the header's error
	// bound".
	BoundCheckEvery int
	// MaterializedPermute forces the legacy materialized unpermute after
	// reconstruction instead of the fused layout decode (mirrors
	// Options.MaterializedPermute; output is bit-identical either way).
	MaterializedPermute bool
	// Interrupt mirrors Options.Interrupt for the decode side: polled at
	// blob and chunk boundaries, a non-nil return aborts the decode.
	Interrupt func() error
	// stats receives verification counters when non-nil (set by
	// DecompressVerified / DecompressPartial).
	stats *verifyCounters
}

func (o DecompressOptions) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// prefixed returns a copy routing trace records under the given stage prefix.
func (o DecompressOptions) prefixed(prefix string) DecompressOptions {
	o.Trace = trace.Prefixed(o.Trace, prefix)
	return o
}

// Decompress reconstructs the data and original dims from a CliZ blob.
func Decompress(blob []byte) ([]float32, []int, error) {
	pos := 0
	return decompressAt(blob, &pos, DecompressOptions{Workers: 1})
}

// DecompressTraced is Decompress with an attached stage collector recording
// per-stage decode timings and byte counts.
func DecompressTraced(blob []byte, c trace.Collector) ([]float32, []int, error) {
	return DecompressWithOptions(blob, DecompressOptions{Trace: c})
}

// DecompressWithOptions is Decompress with decode-side knobs.
func DecompressWithOptions(blob []byte, opt DecompressOptions) ([]float32, []int, error) {
	pos := 0
	total := trace.Begin(opt.Trace, "total")
	data, dims, err := decompressAt(blob, &pos, opt)
	if err == nil {
		total.EndFull(int64(len(blob)), int64(len(data))*4, int64(len(data)), nil)
	}
	return data, dims, err
}

func decompressAt(blob []byte, pos *int, opt DecompressOptions) ([]float32, []int, error) {
	if err := interrupted(opt.Interrupt); err != nil {
		return nil, nil, err
	}
	c := opt.Trace
	h, err := parseHeader(blob, pos)
	if err != nil {
		return nil, nil, err
	}
	if h.flags&flagPeriodic != 0 {
		sr := sectionReader{h: &h}
		tmplSec, err := sr.next(blob, pos, secTemplate)
		if err != nil {
			return nil, nil, err
		}
		resSec, err := sr.next(blob, pos, secResidual)
		if err != nil {
			return nil, nil, err
		}
		if !sr.done() {
			return nil, nil, ErrCorrupt
		}
		tpos := 0
		tmpl, tmplDims, err := decompressAt(tmplSec, &tpos, opt.prefixed("template"))
		if err != nil {
			return nil, nil, fmt.Errorf("core: template: %w", err)
		}
		if len(tmplDims) != len(h.dims) || tmplDims[0] != h.pipe.Period {
			return nil, nil, ErrCorrupt
		}
		rpos := 0
		residual, resDims, err := decompressAt(resSec, &rpos, opt.prefixed("residual"))
		if err != nil {
			return nil, nil, fmt.Errorf("core: residual: %w", err)
		}
		if !dimsEqual(resDims, h.dims) {
			return nil, nil, ErrCorrupt
		}
		sp := trace.Begin(c, "compose")
		data := addTemplate(residual, tmpl, h.dims, h.pipe.Period)
		if h.flags&(flagMask|flagPointMask) != 0 {
			// Adding the template disturbed the fill values the residual
			// decoder placed at masked points; restore them using the
			// validity embedded in the residual blob.
			valid, err := validityFromUnitBlob(resSec, h.dims)
			if err != nil {
				return nil, nil, err
			}
			for i, ok := range valid {
				if !ok {
					data[i] = h.fill
				}
			}
		}
		sp.EndFull(0, int64(len(data))*4, int64(len(data)), nil)
		return data, h.dims, nil
	}
	return decompressUnit(blob, pos, h, opt)
}

// validityFromUnitBlob extracts the embedded validity bitmap of a unit blob.
func validityFromUnitBlob(blob []byte, dims []int) ([]bool, error) {
	pos := 0
	h, err := parseHeader(blob, &pos)
	if err != nil {
		return nil, err
	}
	sr := sectionReader{h: &h}
	switch {
	case h.flags&flagMask != 0:
		sec, err := sr.next(blob, &pos, secMask)
		if err != nil {
			return nil, err
		}
		hm, err := mask.Parse(sec)
		if err != nil {
			return nil, corrupt(err)
		}
		valid, err := hm.Broadcast(dims)
		return valid, corrupt(err)
	case h.flags&flagPointMask != 0:
		sec, err := sr.next(blob, &pos, secMask)
		if err != nil {
			return nil, err
		}
		return unpackBitmap(sec, grid.Volume(dims))
	}
	return nil, ErrCorrupt
}

// checkDecodeBudget gates a declared volume against the hard decode caps and
// the remaining payload size, so hostile headers cannot drive the allocations
// below (bins, bitmaps, output) past what the payload can plausibly back.
func checkDecodeBudget(vol, avail int) error {
	if vol > maxDecodeVolume {
		return fmt.Errorf("core: declared volume %d exceeds decode cap %d: %w",
			vol, maxDecodeVolume, ErrCorrupt)
	}
	if avail < 0 {
		avail = 0
	}
	if uint64(vol) > (uint64(avail)+64)*maxPointsPerByte {
		return fmt.Errorf("core: declared volume %d implausible for %d payload bytes: %w",
			vol, avail, ErrCorrupt)
	}
	return nil
}

func decompressUnit(blob []byte, pos *int, h header, opt DecompressOptions) ([]float32, []int, error) {
	c := opt.Trace
	workers := opt.workers()
	dims := h.dims
	p := h.pipe
	vol := grid.Volume(dims)
	if err := checkDecodeBudget(vol, len(blob)-*pos); err != nil {
		return nil, nil, err
	}
	sr := sectionReader{h: &h}
	var validOrig, tvalid []bool
	sp := trace.Begin(c, "mask")
	switch {
	case h.flags&flagMask != 0:
		sec, err := sr.next(blob, pos, secMask)
		if err != nil {
			return nil, nil, err
		}
		hm, err := mask.Parse(sec)
		if err != nil {
			return nil, nil, corrupt(err)
		}
		nLat, nLon := latLon(dims)
		if hm.NLat != nLat || hm.NLon != nLon {
			return nil, nil, ErrCorrupt
		}
		validOrig, err = hm.Broadcast(dims)
		if err != nil {
			return nil, nil, corrupt(err)
		}
	case h.flags&flagPointMask != 0:
		sec, err := sr.next(blob, pos, secMask)
		if err != nil {
			return nil, nil, err
		}
		var err2 error
		validOrig, err2 = unpackBitmap(sec, vol)
		if err2 != nil {
			return nil, nil, err2
		}
	}
	if validOrig != nil {
		var err2 error
		tvalid, err2 = grid.TransposeWorkers(validOrig, dims, p.Perm, workers)
		if err2 != nil {
			return nil, nil, corrupt(err2)
		}
	}
	sp.EndFull(0, int64(len(validOrig)), int64(len(validOrig)), nil)
	tdims := grid.PermuteDims(dims, p.Perm)
	// Mirror the encoder's layout decision. The choice is local: blobs carry
	// no trace of which path wrote them, and either path decodes any blob to
	// the identical output.
	lay, fused := grid.FusedLayout(dims, p.Perm, p.Fusion)
	if opt.MaterializedPermute {
		fused = false
	}
	if !fused {
		lay = grid.IdentityLayout(p.Fusion.Apply(tdims))
	}

	sp = trace.Begin(c, "entropy-decode")
	binsStart := *pos
	var bins []int32
	if h.flags&flagClassify != 0 {
		metaSec, err := sr.next(blob, pos, secClassMeta)
		if err != nil {
			return nil, nil, err
		}
		aSec, err := sr.next(blob, pos, secBinsA)
		if err != nil {
			return nil, nil, err
		}
		bSec, err := sr.next(blob, pos, secBinsB)
		if err != nil {
			return nil, nil, err
		}
		nLat, nLon := latLon(dims)
		cls, err := classify.UnpackMeta(metaSec, nLat*nLon)
		if err != nil {
			return nil, nil, corrupt(err)
		}
		a, err := decodeSymbolSectionWorkers(aSec, workers, vol)
		if err != nil {
			return nil, nil, err
		}
		b, err := decodeSymbolSectionWorkers(bSec, workers, vol)
		if err != nil {
			return nil, nil, err
		}
		colOf := columnIDs(dims, p.Perm)
		bins, err = classify.Merge(a, b, colOf, tvalid, cls)
		if err != nil {
			return nil, nil, corrupt(err)
		}
		classify.UnshiftBins(bins, colOf, tvalid, cls)
	} else {
		sec, err := sr.next(blob, pos, secBins)
		if err != nil {
			return nil, nil, err
		}
		syms, err := decodeSymbolSectionWorkers(sec, workers, vol)
		if err != nil {
			return nil, nil, err
		}
		bins = make([]int32, vol)
		si := 0
		for i := 0; i < vol; i++ {
			if tvalid != nil && !tvalid[i] {
				continue
			}
			if si >= len(syms) {
				return nil, nil, ErrCorrupt
			}
			bins[i] = int32(syms[si])
			si++
		}
		if si != len(syms) {
			return nil, nil, ErrCorrupt
		}
	}
	sp.EndFull(int64(*pos-binsStart), int64(len(bins))*4, int64(len(bins)), nil)
	sp = trace.Begin(c, "literals-decode")
	litSec, err := sr.next(blob, pos, secLiterals)
	if err != nil {
		return nil, nil, err
	}
	if !sr.done() {
		return nil, nil, ErrCorrupt
	}
	litBytes, err := lossless.Decode(litSec)
	if err != nil {
		return nil, nil, corrupt(err)
	}
	lits, err := bytesToFloat32s(litBytes)
	if err != nil {
		return nil, nil, err
	}
	sp.EndFull(int64(len(litSec)), int64(len(litBytes)), int64(len(lits)), nil)
	recName := "reconstruct"
	if h.psections > 1 {
		recName = "reconstruct-fanout"
	}
	sp = trace.Begin(c, recName)
	out := make([]float32, vol)
	if err := reconstructSections(bins, lits, lay, tvalid, h, workers, h.psections, c, out); err != nil {
		return nil, nil, corrupt(err)
	}
	sp.EndFull(int64(len(bins))*4, int64(len(out))*4, int64(len(out)), nil)
	if opt.BoundCheckEvery > 0 {
		sp = trace.Begin(c, "verify-bound")
		n, err := verifySections(bins, lits, lay, tvalid, h, workers, h.psections, opt.BoundCheckEvery, out)
		if err != nil {
			return nil, nil, fmt.Errorf("core: bound self-verification: %w", corrupt(err))
		}
		if opt.stats != nil {
			opt.stats.boundChecked.Add(int64(n))
		}
		sp.EndFull(int64(len(bins))*4, 0, int64(n), nil)
	}
	// Under the fused layout the reconstruction already sits in the original
	// array layout; the legacy path transposes back.
	if fused {
		return out, dims, nil
	}
	sp = trace.Begin(c, "unpermute")
	data, err := grid.TransposeWorkers(out, tdims, grid.InversePerm(p.Perm), workers)
	if err != nil {
		return nil, nil, corrupt(err)
	}
	sp.EndFull(int64(len(out))*4, int64(len(data))*4, int64(len(data)), nil)
	return data, dims, nil
}

// decodeSymbolSectionWorkers lossless-decodes and entropy-decodes one
// symbol section. maxSyms is the largest symbol count the caller can use
// (the unit volume); the entropy layer rejects declared counts beyond it
// before allocating. Sub-package errors are classified as corruption.
func decodeSymbolSectionWorkers(sec []byte, workers, maxSyms int) ([]uint32, error) {
	raw, err := lossless.Decode(sec)
	if err != nil {
		return nil, corrupt(err)
	}
	syms, err := entropy.DecodeBlockBounded(raw, workers, maxSyms)
	if err != nil {
		return nil, corrupt(err)
	}
	return syms, nil
}

// packBitmap bit-packs and flate-compresses a validity bitmap.
func packBitmap(v []bool) []byte {
	bits := make([]byte, (len(v)+7)/8)
	for i, ok := range v {
		if ok {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return lossless.Encode(lossless.Flate{Level: 6}, bits)
}

func unpackBitmap(blob []byte, n int) ([]bool, error) {
	bits, err := lossless.Decode(blob)
	if err != nil {
		return nil, corrupt(err)
	}
	if len(bits) < (n+7)/8 {
		return nil, ErrCorrupt
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}

func dimsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// latLon returns the trailing-two extents.
func latLon(dims []int) (int, int) {
	n := len(dims)
	if n < 2 {
		return 1, dims[n-1]
	}
	return dims[n-2], dims[n-1]
}

// columnIDs maps each point of the *transposed* layout to its original
// horizontal (lat, lon) column id.
func columnIDs(origDims, perm []int) []int32 {
	n := len(origDims)
	tdims := grid.PermuteDims(origDims, perm)
	vol := grid.Volume(origDims)
	out := make([]int32, vol)
	nLon := origDims[n-1]
	latAx, lonAx := n-2, n-1
	if n < 2 {
		latAx = -1
		lonAx = 0
	}
	co := make([]int, n)
	sc := make([]int, n)
	for i := 0; i < vol; i++ {
		for ax, p := range perm {
			sc[p] = co[ax]
		}
		lat := 0
		if latAx >= 0 {
			lat = sc[latAx]
		}
		out[i] = int32(lat*nLon + sc[lonAx])
		for ax := n - 1; ax >= 0; ax-- {
			co[ax]++
			if co[ax] < tdims[ax] {
				break
			}
			co[ax] = 0
		}
	}
	return out
}
