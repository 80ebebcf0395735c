package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/predict"
	"cliz/internal/trace"
)

// TuneConfig controls the offline auto-tuning stage (paper §VI-A).
type TuneConfig struct {
	// SamplingRate is the expected fraction of the dataset used for
	// testing; 0 selects 1% (the rate used in the paper's §VII-C1).
	// A rate ≥ 1 tests every pipeline on the whole dataset.
	SamplingRate float64
	// MaxPipelines caps the number of candidates (deterministic stride
	// subsampling keeps the space representative); 0 selects 512.
	MaxPipelines int
	// DisablePeriod / DisableClassify remove those stages from the search
	// space (used by the paper's ablations, Tables V–VI).
	DisablePeriod   bool
	DisableClassify bool
	// FixedPeriod overrides FFT-based detection (0 = detect).
	FixedPeriod int
	// EnableLorenzo adds the Lorenzo predictor as a third fitting arm
	// (an extension beyond the paper's {linear, cubic} space; enabling it
	// grows the candidate counts by 50%).
	EnableLorenzo bool
	// SampleRows is the number of rows for period detection (0 = 10, as in
	// the paper's Fig. 8).
	SampleRows int
}

// LevelAlphas is the level-wise error-bound ladder AutoTune searches after
// the pipeline search. It is exported so the fast estimator draws its
// LevelAlpha from the same set — a pipeline knob the estimator can emit but
// the tuner would never select is a contract violation (see
// internal/estimate's breakpoint contract test).
var LevelAlphas = []float64{1, 1.25, 1.5, 1.75, 2}

// Candidate is one tested pipeline with its sample results.
type Candidate struct {
	Pipe        Pipeline
	SampleBytes int
	Ratio       float64 // estimated compression ratio on the sample
	// Duration is the time spent compressing the candidate on the sample.
	// A pipeline and its classify twin share one prediction: its time is
	// charged to whichever of the two the search ran first, and each is
	// charged its own encode.
	Duration time.Duration
}

// TuneReport documents an auto-tuning run.
type TuneReport struct {
	Period        int // detected (or forced) period; 0 if none
	SamplePoints  int
	Candidates    []Candidate
	Best          Pipeline
	BestRatio     float64
	TotalDuration time.Duration
}

// EnumeratePipelines lists the candidate pipelines for a dataset of the
// given rank: period on/off × classification on/off × all permutations ×
// all adjacent fusions × {linear, cubic}. For a periodic 3D dataset this is
// the paper's 2·2·6·4·2 = 192; without periodicity, 96.
func EnumeratePipelines(rank int, period int, useMask bool, tc TuneConfig) []Pipeline {
	periodOpts := []int{0}
	if period > 0 && !tc.DisablePeriod {
		periodOpts = append(periodOpts, period)
	}
	classifyOpts := []bool{false}
	if !tc.DisableClassify {
		classifyOpts = append(classifyOpts, true)
	}
	perms := grid.Permutations(rank)
	fusions := grid.Compositions(rank)
	fits := []predict.Fitting{predict.Linear, predict.Cubic}
	if tc.EnableLorenzo {
		fits = append(fits, predict.Lorenzo)
	}
	var out []Pipeline
	for _, per := range periodOpts {
		for _, cls := range classifyOpts {
			for _, perm := range perms {
				for _, fus := range fusions {
					for _, fit := range fits {
						out = append(out, Pipeline{
							Perm:     perm,
							Fusion:   fus,
							Fitting:  fit,
							Classify: cls,
							UseMask:  useMask,
							Period:   per,
						})
					}
				}
			}
		}
	}
	maxP := tc.MaxPipelines
	if maxP == 0 {
		maxP = 512
	}
	if len(out) > maxP {
		stride := (len(out) + maxP - 1) / maxP
		sub := make([]Pipeline, 0, maxP)
		for i := 0; i < len(out); i += stride {
			sub = append(sub, out[i])
		}
		out = sub
	}
	return out
}

// sample holds the tuner's concatenated test data.
type sample struct {
	data  []float32
	dims  []int
	valid []bool // nil when the dataset has no mask
}

// sampleConcat extracts the tuning sample (paper §VI-A): 2^n blocks centred
// at 1/3 and 2/3 of each dimension, each side (1/2)·rate^(1/n) of the full
// side, concatenated along dimension 0 into a single test dataset. Because
// the blocks' horizontal windows differ, the sample's validity is carried as
// a per-point bitmap. For periodic datasets the blocks' time extents are
// widened to whole multiples of the period and their time origins snapped to
// phase 0, so the concatenated time axis stays phase-aligned and periodic
// candidates remain testable. validOrig is ds.Validity(), which AutoTune
// builds once for all of its samples.
func sampleConcat(ds *dataset.Dataset, validOrig []bool, rate float64, period int) sample {
	if rate >= 1 {
		return sample{data: ds.Data, dims: ds.Dims, valid: validOrig}
	}
	// A minimum block side of 12 keeps the cubic predictor's ±3-stride
	// references meaningful inside a block — the paper (§VI-A) notes that
	// petite blocks systematically disadvantage cubic fitting.
	blocks := grid.SampleBlocks(ds.Dims, rate, 12)
	if period > 0 {
		nT := ds.Dims[0]
		for i := range blocks {
			want := blocks[i].Size[0]
			if want < 2*period {
				want = 2 * period
			}
			want = (want + period - 1) / period * period
			if want > nT {
				want = nT / period * period
				if want < period {
					want = nT
				}
			}
			org := blocks[i].Origin[0]
			org -= org % period
			if org+want > nT {
				org = nT - want
				if org > 0 {
					org -= org % period
				}
				if org < 0 {
					org = 0
				}
			}
			blocks[i].Origin[0] = org
			blocks[i].Size[0] = want
		}
	}
	if validOrig != nil {
		for i := range blocks {
			blocks[i] = nudgeBlockToValid(blocks[i], ds.Dims, validOrig)
		}
	}
	// Periodic data stacks along a spatial axis so every time series in the
	// sample is a coherent series from one block; otherwise dim 0.
	axis := 0
	if period > 0 && len(ds.Dims) >= 2 {
		axis = 1
	}
	data, sdims := grid.ConcatBlocksAxis(ds.Data, ds.Dims, blocks, axis)
	var svalid []bool
	if validOrig != nil {
		svalid, _ = grid.ConcatBlocksAxis(validOrig, ds.Dims, blocks, axis)
	}
	return sample{data: data, dims: sdims, valid: svalid}
}

// sampleCentral extracts a single centred block covering about rate of the
// dataset volume. Unlike the 2^n-block stage-1 sample it has no block seams,
// so the refinement stage ranks predictors on data whose smoothness
// structure matches the full field (seams systematically penalize the
// long-range cubic fitting). Periodic data keeps a phase-aligned time extent
// of at least two periods. validOrig is ds.Validity(), as for sampleConcat.
func sampleCentral(ds *dataset.Dataset, validOrig []bool, rate float64, period int) sample {
	if rate >= 1 {
		return sample{data: ds.Data, dims: ds.Dims, valid: validOrig}
	}
	n := len(ds.Dims)
	frac := math.Pow(rate, 1/float64(n))
	org := make([]int, n)
	size := make([]int, n)
	for i, d := range ds.Dims {
		s := int(frac * float64(d))
		if s < 12 {
			s = 12
		}
		if s > d {
			s = d
		}
		size[i] = s
		org[i] = (d - s) / 2
	}
	if period > 0 {
		nT := ds.Dims[0]
		want := size[0]
		if want < 2*period {
			want = 2 * period
		}
		want = (want + period - 1) / period * period
		if want > nT {
			want = nT / period * period
			if want < period {
				want = nT
			}
		}
		o := org[0] - org[0]%period
		if o+want > nT {
			o = nT - want
			if o > 0 {
				o -= o % period
			}
			if o < 0 {
				o = 0
			}
		}
		org[0], size[0] = o, want
	}
	blk := grid.Block{Origin: org, Size: size}
	if validOrig != nil {
		blk = nudgeBlockToValid(blk, ds.Dims, validOrig)
	}
	data := grid.Extract(ds.Data, ds.Dims, blk)
	var svalid []bool
	if validOrig != nil {
		svalid = grid.Extract(validOrig, ds.Dims, blk)
	}
	return sample{data: data, dims: size, valid: svalid}
}

// nudgeBlockToValid shifts a sample block so it actually covers valid data.
// The paper's fixed 1/3–2/3 block centres can land entirely inside masked
// regions (e.g. the mid-latitudes of an ice field), leaving the tuner to
// rank pipelines on an empty sample; a coordinate-descent scan over a few
// candidate origins per dimension keeps the block where data lives.
func nudgeBlockToValid(b grid.Block, dims []int, valid []bool) grid.Block {
	count := func(blk grid.Block) int {
		vs := grid.Extract(valid, dims, blk)
		n := 0
		for _, ok := range vs {
			if ok {
				n++
			}
		}
		return n
	}
	best := b
	bestN := count(b)
	vol := grid.Volume(b.Size)
	if bestN*2 >= vol { // already mostly valid
		return best
	}
	fracs := []float64{0, 1.0 / 6, 1.0 / 3, 0.5, 2.0 / 3, 5.0 / 6, 1}
	for ax := range dims {
		cur := best
		for _, f := range fracs {
			cand := grid.Block{
				Origin: append([]int(nil), cur.Origin...),
				Size:   cur.Size,
			}
			o := int(f * float64(dims[ax]-cur.Size[ax]))
			if o < 0 {
				o = 0
			}
			cand.Origin[ax] = o
			if n := count(cand); n > bestN {
				best, bestN = cand, n
			}
		}
	}
	return best
}

// AutoTune runs the offline stage: it detects periodicity, samples the
// dataset, tests every candidate pipeline on the sample and returns the best
// one (by estimated compression ratio) together with a full report.
func AutoTune(ds *dataset.Dataset, eb float64, tc TuneConfig, opt Options) (Pipeline, *TuneReport, error) {
	if err := ds.Validate(); err != nil {
		return Pipeline{}, nil, err
	}
	start := time.Now()
	// Candidate evaluation loops run untraced — hundreds of tiny pipeline
	// runs would flood the collector; the tuner records its own coarse
	// stages into the caller's collector instead.
	tcol := opt.Trace
	opt.Trace = nil
	rate := tc.SamplingRate
	if rate == 0 {
		rate = 0.01
	}
	sp := trace.Begin(tcol, "tune/detect-period")
	period := 0
	if ds.Periodic && !tc.DisablePeriod {
		if tc.FixedPeriod > 0 {
			period = tc.FixedPeriod
		} else {
			period = DetectPeriod(ds, tc.SampleRows)
		}
	}
	sp.EndFull(0, 0, int64(period), nil)
	sp = trace.Begin(tcol, "tune/sample")
	validOrig := ds.Validity()
	smp := sampleConcat(ds, validOrig, rate, period)
	samplePoints := grid.Volume(smp.dims)
	sp.EndFull(int64(len(ds.Data))*4, int64(samplePoints)*4, int64(samplePoints), nil)
	sp = trace.Begin(tcol, "tune/search")
	t := &tuner{eb: eb, fill: ds.FillValue, opt: opt, memo: newTuneMemo()}
	cands := EnumeratePipelines(len(ds.Dims), period, ds.Mask != nil, tc)
	results, err := t.run(smp, cands, make([]armResult, len(cands)))
	if err != nil {
		return Pipeline{}, nil, err
	}
	report := &TuneReport{Period: period, SamplePoints: samplePoints}
	bestIdx := -1
	for i, p := range cands {
		r := results[i]
		if r.err != nil {
			continue
		}
		c := Candidate{
			Pipe:        p,
			SampleBytes: r.size,
			Ratio:       r.ratio(p, smp.dims, ds.Dims),
			Duration:    r.dur,
		}
		report.Candidates = append(report.Candidates, c)
		if bestIdx < 0 || c.Ratio > report.Candidates[bestIdx].Ratio {
			bestIdx = len(report.Candidates) - 1
		}
	}
	sp.EndFull(0, 0, int64(len(report.Candidates)), t.stageKVs(tcol))
	if bestIdx < 0 {
		return Pipeline{}, nil, fmt.Errorf("core: auto-tuning found no viable pipeline")
	}
	// Refinement stage: fixed per-blob overheads (Huffman tables, headers,
	// nested template containers) distort the ranking when the sample is
	// tiny, so the leading candidates are re-ranked on an 8×-larger sample.
	best := report.Candidates[bestIdx].Pipe
	bestRatio := report.Candidates[bestIdx].Ratio
	sp = trace.Begin(tcol, "tune/refine")
	refSmp := smp
	if rate < 1 {
		// The refinement sample must carry enough *compressed payload* that
		// candidate differences dominate the fixed per-blob overheads
		// (headers, code tables ≈ a few hundred bytes). At extreme ratios a
		// volume-based sample compresses to almost nothing, so grow the
		// sample until the winner's compressed size reaches minPayload (the
		// stage-1 ratio estimate is itself overhead-dominated there, hence
		// the adaptive loop rather than a one-shot computation).
		const minPayload = 16384.0
		refRate := math.Min(rate*8, 1)
		var probe armResult
		for attempt := 0; ; attempt++ {
			refSmp = sampleCentral(ds, validOrig, refRate, period)
			rs, err := t.compress(refSmp, best)
			if err != nil {
				return Pipeline{}, nil, err
			}
			probe = rs[0]
			if probe.err != nil || refRate >= 1 || attempt >= 3 || float64(probe.size) >= minPayload {
				break
			}
			grow := minPayload / math.Max(float64(probe.size), 1)
			refRate = math.Min(refRate*math.Max(grow, 2), 1)
		}
		leaders := topCandidates(report.Candidates, 8)
		ps := make([]Pipeline, len(leaders))
		res := make([]armResult, len(leaders))
		for k, c := range leaders {
			ps[k] = c.Pipe
			// The last probe already compressed the winner on this sample.
			// Tuner pipelines carry no template yet, so String identifies them.
			if probe.err == nil && c.Pipe.String() == best.String() {
				res[k] = probe
			}
		}
		if res, err = t.run(refSmp, ps, res); err != nil {
			return Pipeline{}, nil, err
		}
		refBest := -1.0
		for k, p := range ps {
			if res[k].err != nil {
				continue
			}
			r := res[k].ratio(p, refSmp.dims, ds.Dims)
			if r > refBest {
				refBest = r
				best = p
				bestRatio = r
			}
		}
	}
	sp.EndFull(0, 0, int64(grid.Volume(refSmp.dims)), t.stageKVs(tcol))
	if best.Period > 0 {
		sp = trace.Begin(tcol, "tune/template")
		// The template is tuned on the refinement sample, not the initial
		// one: the template section often dominates a periodic blob, and a
		// sub-pipeline picked on a tiny sample template generalizes badly to
		// the full field's template (the choice can double the final blob).
		best.Template = t.tuneTemplate(refSmp, best)
		sp.EndFull(0, 0, 0, t.stageKVs(tcol))
	}
	// Level-wise error-bound tuning: coarse interpolation levels anchor all
	// finer predictions, so tightening them (α > 1, capped by β) often buys
	// ratio — the same knob QoZ introduced and newer SZ3 adopted. Tuned
	// after the pipeline search so the paper's candidate counts (96/192 for
	// 3D) are preserved.
	sp = trace.Begin(tcol, "tune/alpha")
	bestAlpha, alphaRatio := 1.0, -1.0
	refPoints := grid.Volume(refSmp.dims)
	for _, alpha := range LevelAlphas {
		if err := interrupted(opt.Interrupt); err != nil {
			return Pipeline{}, nil, err
		}
		p := best
		p.LevelAlpha = alpha
		rs, err := t.compress(refSmp, p)
		if err != nil {
			return Pipeline{}, nil, err
		}
		if rs[0].err != nil {
			continue
		}
		r := float64(refPoints) * 4 / float64(rs[0].size)
		if r > alphaRatio {
			alphaRatio = r
			bestAlpha = alpha
		}
	}
	sp.EndFull(0, 0, 0, t.stageKVs(tcol))
	// tuneTemplate aborts best-effort (it has no error path), so re-check
	// here: a canceled AutoTune must not hand back a half-tuned pipeline.
	if err := interrupted(opt.Interrupt); err != nil {
		return Pipeline{}, nil, err
	}
	best.LevelAlpha = bestAlpha
	report.Best = best
	report.BestRatio = bestRatio
	report.TotalDuration = time.Since(start)
	return best, report, nil
}

// tuner holds what one AutoTune call shares between its candidate runs.
type tuner struct {
	eb   float64
	fill float32
	opt  Options
	memo *tuneMemo
	// predicts and encodes count the runs since the last stageKVs.
	predicts, encodes int
}

// armResult is one pipeline's compression of a tuning sample.
type armResult struct {
	size    int
	tmplLen int // size of a periodic blob's template section; -1 otherwise
	dur     time.Duration
	err     error
	done    bool
}

// ratio estimates the full-data compression ratio from a sample blob. For
// periodic candidates the template is a fixed cost amortized over the
// number of cycles: the sample spans fewer cycles than the full dataset, so
// scale the template's contribution by sampleTime/fullTime before ranking —
// otherwise short samples systematically undervalue periodicity.
func (r armResult) ratio(p Pipeline, smpDims, fullDims []int) float64 {
	effective := float64(r.size)
	if p.Period > 0 && smpDims[0] < fullDims[0] && r.tmplLen >= 0 {
		amort := float64(smpDims[0]) / float64(fullDims[0])
		effective = float64(r.size-r.tmplLen) + float64(r.tmplLen)*amort
	}
	return float64(grid.Volume(smpDims)) * 4 / effective
}

// run compresses every pipeline of ps on smp into res, in ps's order,
// keeping the entries already done. A pipeline and its classify twin (see
// classifyTwins) run as one pair on a single prediction. The returned error
// is an interrupt; a candidate's own failure is recorded in its entry.
func (t *tuner) run(smp sample, ps []Pipeline, res []armResult) ([]armResult, error) {
	twin := classifyTwins(ps)
	for i := range ps {
		if res[i].done {
			continue
		}
		// Poll per candidate, not per stage: candidate errors are recorded
		// and skipped, so an interrupt must surface here.
		if err := interrupted(t.opt.Interrupt); err != nil {
			return nil, err
		}
		j := twin[i]
		if j < 0 || res[j].done {
			rs, err := t.compress(smp, ps[i])
			if err != nil {
				return nil, err
			}
			res[i] = rs[0]
			continue
		}
		rs, err := t.compress(smp, ps[i], ps[j])
		if err != nil {
			return nil, err
		}
		res[i], res[j] = rs[0], rs[1]
	}
	return res, nil
}

// compress runs arms, one pipeline or a classify twin pair, on smp from a
// single prediction and returns their results in order. The prediction's
// time is charged to the first arm, and each arm its own encode. The
// returned error is an interrupt, polled between the two encodes too.
func (t *tuner) compress(smp sample, arms ...Pipeline) ([]armResult, error) {
	res := make([]armResult, len(arms))
	t0 := time.Now()
	var v validity
	if arms[0].UseMask {
		v.pts = smp.valid
	}
	pr, err := predictGeneral(smp.data, smp.dims, v, t.eb, arms[0], t.fill, t.opt, t.memo)
	t.predicts++
	if errors.Is(err, ErrInterrupted) {
		return nil, err
	}
	if err != nil {
		for k := range res {
			res[k] = armResult{err: err, done: true}
		}
		return res, nil
	}
	shared := time.Since(t0)
	order := []int{0, 1}[:len(arms)]
	if len(arms) == 2 && arms[0].Classify {
		order = []int{1, 0} // a classified encode shifts the bins in place
	}
	for n, k := range order {
		if n > 0 {
			if err := interrupted(t.opt.Interrupt); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		blob, err := pr.encode(arms[k].Classify)
		t.encodes++
		r := armResult{size: len(blob), tmplLen: -1, err: err, done: true, dur: time.Since(t1)}
		if k == 0 {
			r.dur += shared
		}
		if err == nil && arms[k].Period > 0 {
			if tmplLen, _, ok := periodicSectionSizes(blob); ok {
				r.tmplLen = tmplLen
			}
		}
		res[k] = r
	}
	return res, nil
}

// stageKVs reports, for a tuner stage's span, the predictions, encodes,
// template compressions and memo hits since the previous report, and
// restarts the counts. It allocates nothing without a collector.
func (t *tuner) stageKVs(c trace.Collector) []trace.KV {
	predicts, encodes, tmpls, hits := t.predicts, t.encodes, t.memo.templateRuns, t.memo.hits
	t.predicts, t.encodes, t.memo.templateRuns, t.memo.hits = 0, 0, 0, 0
	if c == nil {
		return nil
	}
	return []trace.KV{
		{Key: "predict_runs", Value: float64(predicts)},
		{Key: "encodes", Value: float64(encodes)},
		{Key: "template_runs", Value: float64(tmpls)},
		{Key: "memo_hits", Value: float64(hits)},
	}
}

// classifyTwins maps each pipeline of ps to the index of its classify twin
// (the same pipeline with Classify flipped) in ps, or -1. Tuner pipelines
// carry no template, so String identifies them.
func classifyTwins(ps []Pipeline) []int {
	at := make(map[string]int, len(ps))
	for i, p := range ps {
		at[p.String()] = i
	}
	twin := make([]int, len(ps))
	for i, p := range ps {
		p.Classify = !p.Classify
		j, ok := at[p.String()]
		if !ok {
			j = -1
		}
		twin[i] = j
	}
	return twin
}

// tuneMemo keeps, for one AutoTune call, the work no candidate changes:
// the packed mask section of each validity slice, the transposed validity
// of each (validity slice, permutation), the column ids of each (dims,
// permutation), the template data of each (sample, period) and the
// compressed tuned template with its residual of each (sample, period,
// template pipeline, bound, fill). Entries are keyed by the identity of the slice
// they derive from; the tuner never mutates its samples, and a key holds
// its slice alive, so an address cannot be reused for other contents while
// the memo lives. Keys number at most permutations × samples (× template
// pipelines for the compressed templates). It also owns the scratch pair
// every unit is predicted in (workCopy, binsBuffer). A nil memo computes
// everything afresh. Not safe for concurrent use.
type tuneMemo struct {
	masks     map[sliceKey][]byte
	tvalid    map[shapedKey][]bool
	cols      map[string][]int32
	templates map[templateKey]templateData
	parts     map[partsKey]*templateOut
	hits      int
	// templateRuns counts the template compressions, which predict_runs
	// leaves out.
	templateRuns int
	// work and bins are the scratch pair.
	work []float32
	bins []int32
}

func newTuneMemo() *tuneMemo {
	return &tuneMemo{
		masks:     make(map[sliceKey][]byte),
		tvalid:    make(map[shapedKey][]bool),
		cols:      make(map[string][]int32),
		templates: make(map[templateKey]templateData),
		parts:     make(map[partsKey]*templateOut),
	}
}

// workCopy returns the buffer to predict a unit of data in place. With a
// memo it is the memo's scratch work buffer, which the next call
// overwrites: the unit must be encoded before the next unit is predicted,
// and nothing that outlives that may alias it. Without one it is data
// itself when owned (see predictUnit), a fresh copy otherwise.
func (m *tuneMemo) workCopy(data []float32, owned bool) []float32 {
	var work []float32
	switch {
	case m == nil && owned:
		return data
	case m == nil:
		work = make([]float32, len(data))
	default:
		m.work = grow(m.work, len(data))
		work = m.work
	}
	copy(work, data)
	return work
}

// binsBuffer returns a bins buffer of n entries, under the same terms as
// workCopy. Its contents are stale: the engines write every bin.
func (m *tuneMemo) binsBuffer(n int) []int32 {
	if m == nil {
		return make([]int32, n)
	}
	m.bins = grow(m.bins, n)
	return m.bins
}

// grow returns buf resized to n, reallocated only when its capacity is
// short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

type sliceKey struct {
	first *bool
	n     int
}

// keyOf identifies a nonempty validity slice; nil and empty ones share the
// zero key, as their contents agree.
func keyOf(v []bool) sliceKey {
	if len(v) == 0 {
		return sliceKey{}
	}
	return sliceKey{&v[0], len(v)}
}

type shapedKey struct {
	valid sliceKey
	shape string // dims and permutation
}

type templateKey struct {
	data   *float32
	n      int
	valid  sliceKey
	period int
	fill   uint32
}

type templateData struct {
	data  []float32
	dims  []int
	valid []bool
}

// partsKey identifies a compressed template: the sample's data and
// validity, the period, the template pipeline, the bound and the fill.
type partsKey struct {
	data   *float32
	n      int
	valid  sliceKey
	period int
	pipe   string
	eb     uint64
	fill   uint32
}

// periodicTemplate returns compute(), the compressed template and residual
// of data for periodic pipeline p, whose template pipeline is tp. A tuned
// template (p.Template) recurs: the α ladder reruns the same periodic
// pipeline once per α, and tp does not carry the outer α, so every run
// after the first finds it here. Without one, tp derives from p itself,
// which the search does not repeat, so it is computed and not kept.
func (m *tuneMemo) periodicTemplate(data []float32, valid []bool, p, tp Pipeline,
	eb float64, fill float32, compute func() (*templateOut, error)) (*templateOut, error) {

	if m == nil {
		return compute()
	}
	if p.Template == nil || len(data) == 0 {
		m.templateRuns++
		return compute()
	}
	k := partsKey{&data[0], len(data), keyOf(valid), p.Period, tp.String(),
		math.Float64bits(eb), math.Float32bits(fill)}
	if t, ok := m.parts[k]; ok {
		m.hits++
		return t, nil
	}
	m.templateRuns++
	t, err := compute()
	if err != nil {
		return nil, err
	}
	m.parts[k] = t
	return t, nil
}

// packedMask returns packBitmap(v).
func (m *tuneMemo) packedMask(v []bool) []byte {
	if m == nil {
		return packBitmap(v)
	}
	k := keyOf(v)
	if ms, ok := m.masks[k]; ok {
		m.hits++
		return ms
	}
	ms := packBitmap(v)
	m.masks[k] = ms
	return ms
}

// logicalValidity returns v.logical(dims, perm, workers). Only point
// bitmaps are kept: the tuner's samples carry no horizontal map.
func (m *tuneMemo) logicalValidity(v validity, dims, perm []int, workers int) ([]bool, error) {
	if m == nil || v.pts == nil {
		return v.logical(dims, perm, workers)
	}
	k := shapedKey{keyOf(v.pts), fmt.Sprint(dims, perm)}
	if tv, ok := m.tvalid[k]; ok {
		m.hits++
		return tv, nil
	}
	tv, err := v.logical(dims, perm, workers)
	if err != nil {
		return nil, err
	}
	m.tvalid[k] = tv
	return tv, nil
}

// columns returns columnIDs(dims, perm).
func (m *tuneMemo) columns(dims, perm []int) []int32 {
	if m == nil {
		return columnIDs(dims, perm)
	}
	k := fmt.Sprint(dims, perm)
	if cols, ok := m.cols[k]; ok {
		m.hits++
		return cols
	}
	cols := columnIDs(dims, perm)
	m.cols[k] = cols
	return cols
}

// template returns buildTemplate(data, dims, valid, period, fill).
func (m *tuneMemo) template(data []float32, dims []int, valid []bool, period int, fill float32) ([]float32, []int, []bool) {
	if m == nil || len(data) == 0 {
		return buildTemplate(data, dims, valid, period, fill)
	}
	k := templateKey{&data[0], len(data), keyOf(valid), period, math.Float32bits(fill)}
	if t, ok := m.templates[k]; ok {
		m.hits++
		return t.data, t.dims, t.valid
	}
	td, tdims, tvalid := buildTemplate(data, dims, valid, period, fill)
	m.templates[k] = templateData{td, tdims, tvalid}
	return td, tdims, tvalid
}

// topCandidates returns the k best candidates by estimated ratio, plus the
// best candidate of every discrete (fitting, classification, periodicity)
// arm. Small samples systematically bias some arms (e.g. petite blocks hurt
// cubic fitting, §VI-A), so each arm's champion deserves a second look on
// the larger refinement sample even when the whole top-k comes from another
// arm.
func topCandidates(cands []Candidate, k int) []Candidate {
	sorted := append([]Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ratio > sorted[j].Ratio })
	out := sorted
	if len(out) > k {
		out = append([]Candidate(nil), sorted[:k]...)
	}
	seen := map[string]bool{}
	for _, c := range out {
		seen[c.Pipe.String()] = true
	}
	armBest := map[[3]bool]bool{}
	for _, c := range sorted { // descending ratio: first hit per arm wins
		arm := [3]bool{c.Pipe.Fitting == predict.Cubic, c.Pipe.Classify, c.Pipe.Period > 0}
		if armBest[arm] {
			continue
		}
		armBest[arm] = true
		if !seen[c.Pipe.String()] {
			seen[c.Pipe.String()] = true
			out = append(out, c)
		}
	}
	return out
}

// periodicSectionSizes splits a periodic blob's size into the template
// section and everything else (header + residual).
func periodicSectionSizes(blob []byte) (tmplLen, restLen int, ok bool) {
	pos := 0
	h, err := parseHeader(blob, &pos)
	if err != nil || h.flags&flagPeriodic == 0 {
		return 0, 0, false
	}
	tmpl, err := readSection(blob, &pos)
	if err != nil {
		return 0, 0, false
	}
	return len(tmpl), len(blob) - len(tmpl), true
}

// tuneTemplate picks the best sub-pipeline for the template data (paper
// Table IV notes the template pipeline is tuned separately). It tests
// perm × fusion × fitting on the template extracted from the sample.
func (t *tuner) tuneTemplate(smp sample, outer Pipeline) *Pipeline {
	if smp.dims[0] < outer.Period {
		return nil
	}
	var valid []bool
	if outer.UseMask {
		valid = smp.valid
	}
	tmplData, tmplDims, tmplValid := t.memo.template(smp.data, smp.dims, valid, outer.Period, datagenFill)
	var tv validity
	if tmplValid != nil {
		tv.pts = tmplValid
	}
	rank := len(tmplDims)
	var best *Pipeline
	bestBytes := 0
	for _, perm := range grid.Permutations(rank) {
		if interrupted(t.opt.Interrupt) != nil {
			return nil
		}
		for _, fus := range grid.Compositions(rank) {
			for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
				p := Pipeline{Perm: perm, Fusion: fus, Fitting: fit, UseMask: tmplValid != nil}
				u, err := predictUnit(tmplData, tmplDims, tv, t.eb, p, datagenFill, t.opt, t.memo, false)
				t.predicts++
				if err != nil {
					continue
				}
				blob, err := u.encode(false)
				t.encodes++
				if err != nil {
					continue
				}
				if best == nil || len(blob) < bestBytes {
					pc := p
					best = &pc
					bestBytes = len(blob)
				}
			}
		}
	}
	return best
}

// datagenFill mirrors the CESM sentinel; only used for template scratch
// space during tuning, where the exact fill value is irrelevant.
const datagenFill float32 = 9.96921e36
