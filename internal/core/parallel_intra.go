package core

import (
	"fmt"

	"cliz/internal/grid"
	"cliz/internal/interp"
	"cliz/internal/lorenzo"
	"cliz/internal/par"
	"cliz/internal/predict"
	"cliz/internal/trace"
)

// Intra-blob parallelism: the fused leading dimension is cut into P
// contiguous sections and each section runs its own prediction/quantization
// (or reconstruction) engine. Sections are independent — predictions never
// reference across a section boundary — so the partition is part of the
// format: v2 blobs record P (header.psections) and the decoder replays the
// identical partition whatever its own worker budget is. Bins stay in global
// grid order (sections are contiguous in row-major memory); the literal
// stream is the concatenation of the sections' literals, and the decoder
// recovers each section's share by counting bin==0 at valid points.

// minSectionVol keeps sections large enough that the per-section engine
// setup stays negligible.
const minSectionVol = 1 << 15

// minSectionLead is the floor on each section's extent along the fused
// leading dimension. Every section restarts the interpolation hierarchy, so
// a cut costs roughly one coarse level's worth of extra anchors; measured on
// the perf corpus that is ~0.5-0.7% of the blob per boundary at 128+ planes
// per section and grows sharply below (a 25-plane field cut in two loses
// ~15%). The floor keeps the parallel encoding's ratio within the ~1%
// parity contract: short leading extents simply don't section, and the
// entropy shards (which are ratio-neutral) carry the parallelism instead.
const minSectionLead = 128

// sectionCount picks the number of predict sections for a worker budget.
// leadFloor <= 0 selects minSectionLead (tests lower it to exercise
// sectioning on small fixtures).
func sectionCount(workers int, fdims []int, leadFloor int) int {
	if workers <= 1 || len(fdims) == 0 {
		return 1
	}
	if leadFloor <= 0 {
		leadFloor = minSectionLead
	}
	p := workers
	if m := fdims[0] / leadFloor; p > m {
		p = m
	}
	vol := 1
	for _, d := range fdims {
		vol *= d
	}
	if m := vol / minSectionVol; p > m {
		p = m
	}
	if p < 1 {
		p = 1
	}
	return p
}

// sectionBounds cuts the leading extent n into k near-equal pieces (it is
// chunkBounds without period snapping, shared by encode and decode).
func sectionBounds(n, k int) []int {
	return chunkBounds(n, k, 0)
}

// predictSections runs prediction+quantization over P contiguous sections of
// the (logically) fused grid, writing bins into the global slice bins (one
// per point) and returning the concatenated literal stream. The engines run
// in place on work, which holds the original values at lay's physical
// positions on entry and the reconstruction on exit. Sections cut the leading logical axis, so their
// physical footprints are disjoint and the engines never race. P==1 degrades
// to one engine over the whole grid on the calling goroutine.
func predictSections(work []float32, bins []int32, lay grid.Layout, tvalid []bool, eb float64,
	p Pipeline, opt Options, P int) ([]float32, error) {

	fdims := lay.Dims
	vol := grid.Volume(fdims)
	bounds := sectionBounds(fdims[0], P)
	nSec := len(bounds) - 1
	plane := vol / fdims[0]
	secLits := make([][]float32, nSec)
	errs := make([]error, nSec)
	par.Run(opt.workers(), nSec, func(i int) {
		lo, hi := bounds[i]*plane, bounds[i+1]*plane
		slay := lay.Section(bounds[i], bounds[i+1])
		var svalid []bool
		if tvalid != nil {
			svalid = tvalid[lo:hi]
		}
		// Serial runs are traced by the caller's single "predict" span; the
		// sectioned path emits per-shard spans that Aggregate folds back
		// into one "predict" row.
		var tc trace.Collector
		if nSec > 1 {
			tc = trace.Prefixed(opt.Trace, fmt.Sprintf("shard[%d]", i))
		}
		sp := trace.Begin(tc, "predict")
		var lits []float32
		var err error
		if p.Fitting == predict.Lorenzo {
			lits, err = lorenzo.CompressLayout(work, slay, lorenzo.Config{
				EB: eb, Radius: opt.radius(), Valid: svalid,
			}, bins[lo:hi])
		} else {
			lits, err = interp.CompressLayout(work, slay, interp.Config{
				EB:            eb,
				Radius:        opt.radius(),
				Fitting:       p.Fitting,
				Valid:         svalid,
				LevelEBFactor: levelEBFactor(p.LevelAlpha),
			}, bins[lo:hi])
		}
		if err != nil {
			errs[i] = err
			return
		}
		secLits[i] = lits
		sp.EndFull(int64(hi-lo)*4, 0, int64(hi-lo), nil)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var lits []float32
	if nSec == 1 {
		lits = secLits[0]
	} else {
		total := 0
		for _, l := range secLits {
			total += len(l)
		}
		lits = make([]float32, 0, total)
		for _, l := range secLits {
			lits = append(lits, l...)
		}
	}
	return lits, nil
}

// reconstructSections reverses predictSections: the same partition (P from
// the blob header) is replayed over the global bins, each section consuming
// its own prefix of the literal stream, with up to `workers` concurrent
// engines. The reconstruction lands at lay's physical positions in the
// caller-provided out buffer — under a fused layout that is already the
// original array layout, so no unpermute pass follows.
func reconstructSections(bins []int32, lits []float32, lay grid.Layout, tvalid []bool,
	h header, workers, P int, tc trace.Collector, out []float32) error {

	fdims := lay.Dims
	bounds, litStart, err := sectionLitStarts(bins, lits, fdims, tvalid, P)
	if err != nil {
		return err
	}
	nSec := len(bounds) - 1
	plane := len(bins) / fdims[0]
	errs := make([]error, nSec)
	par.Run(workers, nSec, func(i int) {
		lo, hi := bounds[i]*plane, bounds[i+1]*plane
		slay := lay.Section(bounds[i], bounds[i+1])
		var svalid []bool
		if tvalid != nil {
			svalid = tvalid[lo:hi]
		}
		var stc trace.Collector
		if nSec > 1 {
			stc = trace.Prefixed(tc, fmt.Sprintf("shard[%d]", i))
		}
		sp := trace.Begin(stc, "reconstruct")
		if h.pipe.Fitting == predict.Lorenzo {
			errs[i] = lorenzo.DecompressLayout(bins[lo:hi], lits[litStart[i]:], slay, lorenzo.Config{
				EB: h.eb, Radius: h.radius, Valid: svalid,
			}, out)
		} else {
			errs[i] = interp.DecompressLayout(bins[lo:hi], lits[litStart[i]:], slay, interp.Config{
				EB:            h.eb,
				Radius:        h.radius,
				Fitting:       h.pipe.Fitting,
				Valid:         svalid,
				LevelEBFactor: levelEBFactor(h.pipe.LevelAlpha),
			}, out)
		}
		sp.EndFull(int64(hi-lo)*4, int64(hi-lo)*4, int64(hi-lo), nil)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sectionLitStarts replays the encoder's section partition and computes each
// section's literal-stream start. Each section consumes exactly one literal
// per valid bin-0 point it handles; prefix sums give every section its slice
// start. Slices are open-ended past the start so section-local underrun
// checks match the serial engine's. A single section starts at 0 without a
// count: its engine rejects an underrun itself.
func sectionLitStarts(bins []int32, lits []float32, fdims []int, tvalid []bool, P int) ([]int, []int, error) {
	if len(fdims) == 0 || fdims[0] < P || P < 1 {
		return nil, nil, ErrCorrupt
	}
	bounds := sectionBounds(fdims[0], P)
	nSec := len(bounds) - 1
	plane := len(bins) / fdims[0]
	litStart := make([]int, nSec+1)
	if nSec == 1 {
		return bounds, litStart, nil
	}
	for i := 0; i < nSec; i++ {
		lo, hi := bounds[i]*plane, bounds[i+1]*plane
		cnt := 0
		for j := lo; j < hi; j++ {
			if bins[j] == 0 && (tvalid == nil || tvalid[j]) {
				cnt++
			}
		}
		litStart[i+1] = litStart[i] + cnt
	}
	if litStart[nSec] > len(lits) {
		return nil, nil, fmt.Errorf("core: literal stream underrun: %w", ErrCorrupt)
	}
	return bounds, litStart, nil
}

// verifySections mirrors reconstructSections in verify mode: each section
// replays its prediction traversal read-only over the finished
// reconstruction (addressed through lay) and checks that every `every`-th
// point is exactly regenerated from its recorded bin or literal. Returns the
// total number of points checked.
func verifySections(bins []int32, lits []float32, lay grid.Layout, tvalid []bool,
	h header, workers, P, every int, recon []float32) (int, error) {

	fdims := lay.Dims
	bounds, litStart, err := sectionLitStarts(bins, lits, fdims, tvalid, P)
	if err != nil {
		return 0, err
	}
	nSec := len(bounds) - 1
	plane := len(bins) / fdims[0]
	counts := make([]int, nSec)
	errs := make([]error, nSec)
	par.Run(workers, nSec, func(i int) {
		lo, hi := bounds[i]*plane, bounds[i+1]*plane
		slay := lay.Section(bounds[i], bounds[i+1])
		var svalid []bool
		if tvalid != nil {
			svalid = tvalid[lo:hi]
		}
		if h.pipe.Fitting == predict.Lorenzo {
			counts[i], errs[i] = lorenzo.VerifyLayout(bins[lo:hi], lits[litStart[i]:], slay, lorenzo.Config{
				EB: h.eb, Radius: h.radius, Valid: svalid,
			}, recon, every)
		} else {
			counts[i], errs[i] = interp.VerifyLayout(bins[lo:hi], lits[litStart[i]:], slay, interp.Config{
				EB:            h.eb,
				Radius:        h.radius,
				Fitting:       h.pipe.Fitting,
				Valid:         svalid,
				LevelEBFactor: levelEBFactor(h.pipe.LevelAlpha),
			}, recon, every)
		}
	})
	total := 0
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		total += counts[i]
	}
	return total, nil
}
