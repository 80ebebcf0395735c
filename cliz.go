// Package cliz is an error-bounded lossy compressor optimized for climate
// datasets, reproducing "CliZ: Optimizing Lossy Compression for Climate
// Datasets with Adaptive Fine-tuned Data Prediction" (IPDPS 2024).
//
// CliZ builds on the SZ3 prediction/quantization/encoding framework and
// exploits four properties of climate data: the mask-map marking invalid
// regions, the diverse smoothness of different dimensions (addressed by
// dimension permutation and fusion), temporal periodicity (addressed by
// periodic component extraction), and topography-correlated quantization-bin
// statistics (addressed by bin classification with multi-Huffman encoding).
//
// The workflow mirrors the paper's offline/online split: AutoTune runs once
// per climate model on one representative field and returns a Pipeline; the
// pipeline then compresses every field of that model online:
//
//	ds := &cliz.Dataset{Name: "SSH", Data: data, Dims: []int{1032, 384, 320},
//		Lead: cliz.LeadTime, Periodic: true, MaskRegions: regions,
//		FillValue: 9.96921e36}
//	pipe, _, err := cliz.AutoTune(ds, cliz.Rel(1e-2), nil)
//	blob, info, err := cliz.Compress(ds, cliz.Rel(1e-2), &pipe)
//	recon, dims, err := cliz.Decompress(blob)
//
// For one-shot use, Compress accepts a nil pipeline and picks the default.
package cliz

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"cliz/internal/core"
	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/estimate"
	"cliz/internal/mask"
	"cliz/internal/trace"
)

// LeadKind describes the physical meaning of a dataset's leading dimension.
type LeadKind int

const (
	// LeadNone marks a purely horizontal 2D field.
	LeadNone LeadKind = iota
	// LeadTime marks time as the leading dimension (periodicity may apply).
	LeadTime
	// LeadHeight marks vertical layers as the leading dimension.
	LeadHeight
)

// Dataset describes one climate field. The trailing two dimensions are the
// horizontal (lat, lon) grid; optional leading dimensions are time and/or
// height (e.g. [time, height, lat, lon] for a 4D land-model field).
type Dataset struct {
	// Name labels the field (e.g. "SSH").
	Name string
	// Data is the row-major float32 grid.
	Data []float32
	// Dims are the grid extents.
	Dims []int
	// Lead describes the first dimension.
	Lead LeadKind
	// Periodic marks fields whose metadata flags the time axis as periodic.
	Periodic bool
	// MaskRegions is the optional horizontal mask map (length lat·lon):
	// 0 marks invalid cells, non-zero values label regions, exactly as in
	// CESM files. Nil means every point is valid.
	MaskRegions []int32
	// FillValue is the sentinel stored at invalid points.
	FillValue float32
}

func (d *Dataset) internal() (*dataset.Dataset, error) {
	if d == nil {
		return nil, errors.New("cliz: nil dataset")
	}
	ds := &dataset.Dataset{
		Name:      d.Name,
		Data:      d.Data,
		Dims:      d.Dims,
		Lead:      dataset.LeadKind(d.Lead),
		Periodic:  d.Periodic,
		FillValue: d.FillValue,
	}
	if d.MaskRegions != nil {
		if len(d.Dims) < 2 {
			return nil, errors.New("cliz: mask requires at least 2 dims")
		}
		nLat := d.Dims[len(d.Dims)-2]
		nLon := d.Dims[len(d.Dims)-1]
		if len(d.MaskRegions) != nLat*nLon {
			return nil, fmt.Errorf("cliz: mask length %d != %d·%d",
				len(d.MaskRegions), nLat, nLon)
		}
		ds.Mask = mask.New(nLat, nLon, d.MaskRegions)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// ErrorBound specifies the error budget: exactly one of Rel and Abs must be
// positive. Rel is a fraction of the valid value range (the convention used
// throughout the paper's evaluation); Abs is an absolute bound.
type ErrorBound struct {
	Rel float64
	Abs float64
}

// Rel returns a relative (value-range) error bound.
func Rel(v float64) ErrorBound { return ErrorBound{Rel: v} }

// Abs returns an absolute error bound.
func Abs(v float64) ErrorBound { return ErrorBound{Abs: v} }

func (e ErrorBound) resolve(ds *dataset.Dataset) (float64, error) {
	switch {
	case e.Abs > 0 && e.Rel == 0:
		if math.IsInf(e.Abs, 0) || math.IsNaN(e.Abs) {
			return 0, fmt.Errorf("cliz: non-finite absolute error bound %g", e.Abs)
		}
		return e.Abs, nil
	case e.Rel > 0 && e.Abs == 0:
		lo, hi := ds.ValueRange()
		if hi-lo <= 0 {
			// A constant field has no value range to scale against; the old
			// behavior silently substituted a range of 1, turning "0.1% of
			// the range" into an arbitrary absolute budget.
			return 0, fmt.Errorf("cliz: relative bound %g on a field with zero value range [%g, %g]; use Abs for constant fields", e.Rel, lo, hi)
		}
		abs := ds.AbsErrorBound(e.Rel)
		if math.IsInf(abs, 0) || math.IsNaN(abs) {
			// An infinite value range (±Inf at a valid point) would resolve
			// to an unbounded budget and silently destroy the data.
			return 0, fmt.Errorf("cliz: relative bound %g resolves to non-finite absolute bound (non-finite values at valid points?)", e.Rel)
		}
		return abs, nil
	}
	return 0, fmt.Errorf("cliz: exactly one of Rel/Abs must be positive (got %+v)", e)
}

// Pipeline is a fully specified compression configuration — the output of
// the offline auto-tuning stage. The zero value is invalid; obtain pipelines
// from AutoTune or DefaultPipeline.
type Pipeline struct {
	p core.Pipeline
}

// String renders the pipeline in the paper's table notation.
func (p Pipeline) String() string { return p.p.String() }

// DefaultPipeline returns the untuned baseline pipeline for a dataset.
func DefaultPipeline(ds *Dataset) (Pipeline, error) {
	ids, err := ds.internal()
	if err != nil {
		return Pipeline{}, err
	}
	return Pipeline{p: core.Default(ids)}, nil
}

// TuneOptions control AutoTune. The zero value (or nil) uses the paper's
// defaults: 1% sampling and the full pipeline search space.
type TuneOptions struct {
	// SamplingRate is the fraction of data used for pipeline testing
	// (paper §VI-A); 0 selects 1%.
	SamplingRate float64
	// MaxPipelines caps the candidate count (0 = 512).
	MaxPipelines int
	// DisablePeriod / DisableClassify shrink the search space.
	DisablePeriod   bool
	DisableClassify bool
	// FixedPeriod overrides FFT-based period detection.
	FixedPeriod int
	// EstimateFirst runs the fast feature-based estimator before the
	// candidate search: when its confidence reaches MinConfidence the
	// estimated pipeline is returned directly (TuneReport.Mode "estimate")
	// and the search is skipped; otherwise the full search runs as usual.
	EstimateFirst bool
	// MinConfidence is the EstimateFirst acceptance threshold;
	// 0 selects MinEstimateConfidence.
	MinConfidence float64
	// Trace, when non-nil, records the tuner's coarse stages (period
	// detection, sampling, search, refinement) into the collector.
	Trace *Trace
	// Context, when non-nil, is polled at candidate boundaries: a canceled
	// or expired context aborts the tune with an error wrapping ctx.Err().
	// The tuner runs hundreds of candidate compressions, so this is the
	// knob that bounds a server-side tune's tail latency.
	Context context.Context
}

// TuneReport summarizes an AutoTune run.
type TuneReport struct {
	// Period is the detected period along the time axis (0 = none).
	Period int
	// PipelinesTested is the number of candidates evaluated (0 when the
	// estimator answered).
	PipelinesTested int
	// EstimatedRatio is the winner's compression ratio on the sample (or
	// the estimator's full-data prediction in estimate mode).
	EstimatedRatio float64
	// Mode says how the pipeline was decided: "search" for the full
	// candidate search, "estimate" when EstimateFirst accepted the fast
	// estimate and the search was skipped.
	Mode string
	// Confidence is the estimator's confidence (estimate mode only).
	Confidence float64
}

// AutoTune runs the offline stage on a representative field and returns the
// best pipeline for its climate model. Fields of the same model can reuse
// the pipeline (paper §IV).
func AutoTune(ds *Dataset, eb ErrorBound, opt *TuneOptions) (Pipeline, *TuneReport, error) {
	ids, err := ds.internal()
	if err != nil {
		return Pipeline{}, nil, err
	}
	abs, err := eb.resolve(ids)
	if err != nil {
		return Pipeline{}, nil, err
	}
	var tc core.TuneConfig
	var copt core.Options
	if opt != nil {
		tc = core.TuneConfig{
			SamplingRate:    opt.SamplingRate,
			MaxPipelines:    opt.MaxPipelines,
			DisablePeriod:   opt.DisablePeriod,
			DisableClassify: opt.DisableClassify,
			FixedPeriod:     opt.FixedPeriod,
		}
		copt.Trace = opt.Trace.collector()
		if opt.Context != nil {
			copt.Interrupt = opt.Context.Err
		}
	}
	if opt != nil && opt.EstimateFirst {
		minConf := opt.MinConfidence
		if minConf == 0 {
			minConf = MinEstimateConfidence
		}
		res, err := estimate.Estimate(ids, abs, estimate.Config{Tune: tc, Interrupt: copt.Interrupt})
		// A failed estimate is not a failed tune — the search below answers.
		if err == nil && res.Confidence >= minConf {
			return Pipeline{p: res.Pipeline}, &TuneReport{
				Period:         res.Pipeline.Period,
				EstimatedRatio: res.Ratio,
				Mode:           "estimate",
				Confidence:     res.Confidence,
			}, nil
		}
	}
	best, rep, err := core.AutoTune(ids, abs, tc, copt)
	if err != nil {
		return Pipeline{}, nil, err
	}
	return Pipeline{p: best}, &TuneReport{
		Period:          rep.Period,
		PipelinesTested: len(rep.Candidates),
		EstimatedRatio:  rep.BestRatio,
		Mode:            "search",
	}, nil
}

// StageInfo is one per-stage record of a traced compression or
// decompression run: wall time, byte counts, item counts and stage-specific
// numeric annotations (quantization-bin histogram entropy, Huffman table
// bytes, ...). Nested work is path-qualified, e.g. "template/predict" or
// "chunk[3]/entropy".
type StageInfo struct {
	Name     string
	Duration time.Duration
	InBytes  int64
	OutBytes int64
	Items    int64
	Notes    map[string]float64
}

// Trace collects per-stage records across one or more compression runs.
// Attach it with WithTrace; it is safe for concurrent use (the chunked
// compressor records from many goroutines). The zero value is ready to use.
type Trace struct {
	rec trace.Recorder
}

// Stages returns the collected records in arrival order.
func (t *Trace) Stages() []StageInfo { return stageInfos(t.rec.Stages()) }

// Aggregate merges records by base stage name (summing nested template/,
// residual/ and chunk[i]/ work), ordered by descending duration.
func (t *Trace) Aggregate() []StageInfo { return stageInfos(t.rec.Aggregate()) }

// Reset clears the trace for reuse.
func (t *Trace) Reset() { t.rec.Reset() }

// String renders the records as an aligned, human-readable stage table.
func (t *Trace) String() string { return t.rec.Table() }

func (t *Trace) collector() trace.Collector {
	if t == nil {
		return nil
	}
	return &t.rec
}

func stageInfos(stages []trace.Stage) []StageInfo {
	out := make([]StageInfo, len(stages))
	for i, s := range stages {
		out[i] = StageInfo{
			Name:     s.Name,
			Duration: s.Duration,
			InBytes:  s.InBytes,
			OutBytes: s.OutBytes,
			Items:    s.Items,
		}
		if len(s.Extra) > 0 {
			out[i].Notes = make(map[string]float64, len(s.Extra))
			for _, kv := range s.Extra {
				out[i].Notes[kv.Key] = kv.Value
			}
		}
	}
	return out
}

// Option customizes a Compress, CompressChunked or Decompress call.
type Option func(*config)

type config struct {
	trace      *Trace
	workers    int
	boundEvery int
	entropy    EntropyKind
	keyframe   int
	ctx        context.Context
}

// interrupt maps the config's context (if any) onto the core's polling
// hook: ctx.Err is nil until the context is canceled or its deadline fires.
func (c *config) interrupt() func() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err
}

// WithContext threads a context through the call: compression, decompression
// and tuning poll ctx at stage, chunk and tuner-candidate boundaries and
// abort with an error wrapping ctx.Err() once it is canceled or past its
// deadline. The polling granularity is a pipeline stage, not a point, so
// cancellation latency is one stage of work. This is the per-request
// cancellation clizd relies on; without the option nothing is ever polled.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithTrace attaches a stage collector: the run records per-stage wall
// times and byte counts into t, and the returned CompressInfo carries the
// records in its Stages field. Without this option the instrumentation
// hooks are allocation-free no-ops.
func WithTrace(t *Trace) Option {
	return func(c *config) { c.trace = t }
}

// WithWorkers bounds intra-blob parallelism: sectioned prediction (or
// reconstruction on decode), sharded entropy coding and parallel
// transposition all run on up to n goroutines. n <= 1 (the default) keeps
// everything on the calling goroutine. The encoded blob is deterministic for
// a fixed n; decode output never depends on n at all, because the section
// partition is read back from the blob header. Chunked containers combine
// this with chunk-level concurrency (the chunk workers argument), so the
// two multiply — keep the product near GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// EntropyKind selects the entropy-coding stage used for new blobs. Blocks
// are self-describing, so the decode side never needs (and ignores) this.
type EntropyKind = entropy.Kind

const (
	// EntropyHuffman is the paper's canonical Huffman coder (the default).
	EntropyHuffman = entropy.Huffman
	// EntropyRANS is the single-state static rANS coder.
	EntropyRANS = entropy.RANS
	// EntropyRANSInterleaved is N-way interleaved static rANS: the same
	// size class as EntropyRANS with a faster (multi-state) decode loop.
	EntropyRANSInterleaved = entropy.RANSInterleaved
)

// WithEntropy selects the entropy stage for Compress / CompressChunked.
// The zero value keeps the default (Huffman). Decoding is unaffected:
// every reader decodes every kind.
func WithEntropy(k EntropyKind) Option {
	return func(c *config) { c.entropy = k }
}

// WithKeyframeInterval sets the keyframe spacing of a NewStreamWriter:
// every k-th appended frame is coded independently of its predecessors, so
// StreamReader.Seek replays at most k-1 delta frames. k = 1 makes every
// frame a keyframe (maximum seek speed, no temporal compression). Other
// entry points ignore the option. The default is 16.
func WithKeyframeInterval(k int) Option {
	return func(c *config) { c.keyframe = k }
}

// WithBoundCheck enables decode-time bound self-verification: after the
// reconstruction is built, the prediction traversal is replayed read-only
// over it and every n-th point is checked to regenerate exactly from its
// recorded quantization bin (n = 1 checks every point). Combined with the
// v3 checksums this upgrades "the bitstream decoded" to "the decode
// satisfies the header's error bound". A mismatch fails the decode with an
// error; the sampled replay costs roughly a second reconstruction pass at
// n = 1 and amortizes away for larger n.
func WithBoundCheck(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.boundEvery = n
	}
}

// CompressInfo reports what a compression achieved.
type CompressInfo struct {
	// CompressedBytes is the blob size.
	CompressedBytes int
	// Ratio is original bytes / compressed bytes.
	Ratio float64
	// BitRate is compressed bits per data point.
	BitRate float64
	// Pipeline is the configuration used, in table notation.
	Pipeline string
	// Stages holds the per-stage records when a Trace was attached with
	// WithTrace (nil otherwise).
	Stages []StageInfo
}

// prepare is the shared front half of Compress and CompressChunked:
// validate the dataset, resolve the error bound, and resolve the pipeline.
// A nil pipe selects the default; a non-nil pipeline that was not produced
// by AutoTune, DefaultPipeline or a prior decode (i.e. the zero value) is
// rejected instead of being silently swapped for the default.
func prepare(ds *Dataset, eb ErrorBound, pipe *Pipeline) (*dataset.Dataset, float64, core.Pipeline, error) {
	ids, err := ds.internal()
	if err != nil {
		return nil, 0, core.Pipeline{}, err
	}
	abs, err := eb.resolve(ids)
	if err != nil {
		return nil, 0, core.Pipeline{}, err
	}
	if pipe == nil {
		return ids, abs, core.Default(ids), nil
	}
	if pipe.p.Perm == nil {
		return nil, 0, core.Pipeline{}, errors.New(
			"cliz: zero-value Pipeline; use AutoTune or DefaultPipeline, or pass nil for the default")
	}
	return ids, abs, pipe.p, nil
}

// newCompressInfo builds the CompressInfo shared by both compress entry
// points.
func newCompressInfo(ids *dataset.Dataset, blob []byte, p core.Pipeline, cfg *config) *CompressInfo {
	points := ids.Points()
	info := &CompressInfo{
		CompressedBytes: len(blob),
		Ratio:           float64(points*4) / float64(len(blob)),
		BitRate:         float64(len(blob)) * 8 / float64(points),
		Pipeline:        p.String(),
	}
	if cfg.trace != nil {
		info.Stages = cfg.trace.Stages()
	}
	return info
}

// Compress encodes the dataset under the error bound with the given
// pipeline (nil selects the default pipeline). The returned blob is
// self-contained: Decompress needs nothing else.
func Compress(ds *Dataset, eb ErrorBound, pipe *Pipeline, opts ...Option) ([]byte, *CompressInfo, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	ids, abs, p, err := prepare(ds, eb, pipe)
	if err != nil {
		return nil, nil, err
	}
	blob, err := core.Compress(ids, abs, p, core.Options{
		Trace:     cfg.trace.collector(),
		Workers:   cfg.workers,
		Entropy:   cfg.entropy,
		Interrupt: cfg.interrupt(),
	})
	if err != nil {
		return nil, nil, err
	}
	return blob, newCompressInfo(ids, blob, p, &cfg), nil
}

// Decompress reconstructs the data and its dims from a CliZ blob — either a
// regular blob from Compress or a chunked container from CompressChunked
// (chunks decode concurrently). WithWorkers bounds intra-blob decode
// parallelism; the output is identical for every worker count.
func Decompress(blob []byte, opts ...Option) ([]float32, []int, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	opt := core.DecompressOptions{
		Workers:         cfg.workers,
		Trace:           cfg.trace.collector(),
		BoundCheckEvery: cfg.boundEvery,
		Interrupt:       cfg.interrupt(),
	}
	if core.IsChunked(blob) {
		return core.DecompressChunkedOpts(blob, cfg.workers, opt)
	}
	return core.DecompressWithOptions(blob, opt)
}

// DecompressTraced is Decompress with an attached stage collector recording
// per-stage decode timings and byte counts (t may be nil).
func DecompressTraced(blob []byte, t *Trace) ([]float32, []int, error) {
	return Decompress(blob, WithTrace(t))
}

// SectionCheck is the verification result for one blob section. Path names
// the section qualified by its position in the blob tree ("header", "bins",
// "template/literals", "chunk[2]/mask", ...).
type SectionCheck struct {
	Path  string
	Bytes int
	// OK is false when the section's checksum mismatches or its framing is
	// corrupt.
	OK bool
	// Checksummed reports whether a CRC-32C actually covered this section
	// (false inside v1/v2 blobs, which carry no checksums and are only
	// walked structurally).
	Checksummed bool
	// Detail explains a failure (empty when OK).
	Detail string
}

// ChunkDamage describes one undecodable chunk of a chunked container.
type ChunkDamage struct {
	// Index is the chunk's position in the container.
	Index int
	// LeadStart/LeadLen locate the damaged region along dims[0]; in the
	// partial-decode output that region is filled with quiet NaN.
	LeadStart int
	LeadLen   int
	// Detail is the decode failure.
	Detail string
}

// VerifyReport is the outcome of verifying a blob's integrity.
type VerifyReport struct {
	// Kind is "unit", "periodic" or "chunked".
	Kind string
	// Version is the blob format version (v3 blobs carry checksums).
	Version int
	// Checksummed reports whether every part of the blob carries CRC-32C
	// integrity checksums.
	Checksummed bool
	// Sections lists every section checked, in blob order.
	Sections []SectionCheck
	// BoundChecked counts the points re-verified against the error bound
	// when WithBoundCheck was enabled on DecompressVerified.
	BoundChecked int64
	// DamagedChunks lists the chunks DecompressPartial could not decode.
	DamagedChunks []ChunkDamage
}

// OK reports whether every section verified and every chunk decoded.
func (r *VerifyReport) OK() bool {
	for _, s := range r.Sections {
		if !s.OK {
			return false
		}
	}
	return len(r.DamagedChunks) == 0
}

// Damaged returns the paths of all failed sections and damaged chunks.
func (r *VerifyReport) Damaged() []string {
	var out []string
	for _, s := range r.Sections {
		if !s.OK {
			out = append(out, s.Path)
		}
	}
	for _, c := range r.DamagedChunks {
		out = append(out, fmt.Sprintf("chunk[%d]", c.Index))
	}
	return out
}

func publicReport(rep *core.VerifyReport) *VerifyReport {
	out := &VerifyReport{
		Kind:         rep.Kind,
		Version:      rep.Version,
		Checksummed:  rep.Checksummed,
		BoundChecked: rep.BoundChecked,
	}
	for _, s := range rep.Sections {
		out.Sections = append(out.Sections, SectionCheck(s))
	}
	for _, c := range rep.DamagedChunks {
		out.DamagedChunks = append(out.DamagedChunks, ChunkDamage{
			Index:     c.Index,
			LeadStart: c.LeadStart,
			LeadLen:   c.LeadLen,
			Detail:    c.Err.Error(),
		})
	}
	return out
}

// Verify checks a blob's integrity without decoding payloads: v3 blobs have
// the header checksum and every per-section CRC-32C recomputed, v1/v2 blobs
// are walked structurally. Damage is attributed to named sections; hostile
// input never panics and cannot trigger volume-sized allocations.
func Verify(blob []byte) *VerifyReport {
	return publicReport(core.Verify(blob))
}

// DecompressVerified verifies every checksum before decoding and returns the
// verification report alongside the data. With WithBoundCheck the decode
// additionally re-verifies sampled points against the error bound. On
// damage, the error is non-nil and the report names the failed sections.
func DecompressVerified(blob []byte, opts ...Option) ([]float32, []int, *VerifyReport, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	data, dims, rep, err := core.DecompressVerified(blob, core.DecompressOptions{
		Workers:         cfg.workers,
		Trace:           cfg.trace.collector(),
		BoundCheckEvery: cfg.boundEvery,
		Interrupt:       cfg.interrupt(),
	})
	return data, dims, publicReport(rep), err
}

// DecompressPartial decodes as much of a chunked container as possible:
// intact chunks land in the output, undecodable chunks are reported in the
// VerifyReport's DamagedChunks and their regions filled with quiet NaN so
// they cannot be mistaken for data. Non-chunked blobs behave like
// DecompressVerified. The error is non-nil only when nothing was decodable.
func DecompressPartial(blob []byte, opts ...Option) ([]float32, []int, *VerifyReport, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	data, dims, rep, err := core.DecompressPartial(blob, core.DecompressOptions{
		Workers:         cfg.workers,
		Trace:           cfg.trace.collector(),
		BoundCheckEvery: cfg.boundEvery,
		Interrupt:       cfg.interrupt(),
	})
	return data, dims, publicReport(rep), err
}

// compile-time checks that the internal enums line up with the public ones.
var (
	_ = [1]struct{}{}[int(LeadNone)-int(dataset.LeadNone)]
	_ = [1]struct{}{}[int(LeadTime)-int(dataset.LeadTime)]
	_ = [1]struct{}{}[int(LeadHeight)-int(dataset.LeadHeight)]
)
