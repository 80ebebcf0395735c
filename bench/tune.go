package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cliz/internal/core"
	"cliz/internal/dataset"
	"cliz/internal/estimate"
)

// tuneField is one field of the tuner workload.
type tuneField struct {
	key string
	ds  *dataset.Dataset
	eb  float64
	ref *reference
	raw float64
	// search runs the full AutoTune search after the estimate; without it
	// the field is estimated only (AutoTune on CESM-T takes seconds per
	// candidate sweep).
	search bool
	// est is the latest estimate; its pipeline's actual ratio is measured
	// once after the phase.
	est *estimate.Result
}

// tuneBench is a closed loop of passes over its fields with no pipeline
// cache: each searched field is estimated, tuned from scratch, compressed
// with the tuned pipeline and decompressed — the cold path of a field no
// pipeline is known for when the estimate is not trusted.
type tuneBench struct {
	fields []*tuneField
}

func setupTune(r *run) (instance, error) {
	specs := []struct {
		key    string
		field  sized
		rel    float64
		search bool
	}{
		{"ssh", sshField, 1e-2, true},
		{"hurricane", hurricaneField, 1e-5, true},
		{"cesm", tuneCESMField, 1e-2, false},
	}
	t := &tuneBench{}
	for _, sp := range specs {
		ds, err := cropField(sp.field.pick(r.small), seedRNG(r.seed, 1))
		if err != nil {
			return nil, err
		}
		eb := ds.AbsErrorBound(sp.rel)
		t.fields = append(t.fields, &tuneField{key: sp.key, ds: ds, eb: eb,
			ref: newReference(ds, eb), raw: float64(len(ds.Data) * 4), search: sp.search})
	}
	return t, nil
}

func (t *tuneBench) inputs() []field {
	var out []field
	for _, f := range t.fields {
		out = append(out, field{f.ds.Dims, f.ds.Data})
	}
	return out
}

func (t *tuneBench) warm(r *run) { t.pass(r, false) }
func (t *tuneBench) close()      {}

func (t *tuneBench) measure(r *run) {
	closedLoop(r, func(traced bool) { t.pass(r, traced) })
	for _, f := range t.fields {
		t.checkEstimate(r, f)
	}
}

func (t *tuneBench) pass(r *run, traced bool) {
	log := r.log(traced)
	a0 := heapAllocs()
	t0 := time.Now()
	points := 0
	for _, f := range t.fields {
		log.beginOp()
		if f.search {
			points += len(f.ds.Data)
		}
		r.check(f.key, t.cold(r, log, f))
	}
	r.add(opKey(traced), time.Since(t0).Seconds())
	if !traced {
		r.add("alloc", (heapAllocs()-a0)/float64(points))
	}
}

// cold runs one field's estimate, and for searched fields the tune, the
// compression and the checked decompression.
func (t *tuneBench) cold(r *run, log *spanLog, f *tuneField) error {
	sp := log.begin("estimate")
	t0 := time.Now()
	est, err := estimate.Estimate(f.ds, f.eb, estimate.Config{})
	te := time.Since(t0)
	log.end(sp, int64(f.raw), 0)
	if err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	if err := est.Pipeline.Validate(len(f.ds.Dims)); err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	f.est = est
	r.add(f.key+".estimate_ms", 1e3*te.Seconds())
	r.add("confidence", est.Confidence)
	if log != nil {
		// The feature pass alone, timed apart from the probe compressions.
		t0 = time.Now()
		if _, err := estimate.Extract(f.ds, f.eb); err != nil {
			return fmt.Errorf("features: %w", err)
		}
		r.add(f.key+".features_ms", 1e3*time.Since(t0).Seconds())
	}
	if !f.search {
		return nil
	}

	sp = log.begin("autotune")
	t0 = time.Now()
	pipe, rep, err := core.AutoTune(f.ds, f.eb, core.TuneConfig{}, core.Options{Workers: 1, Trace: log.collector()})
	ta := time.Since(t0)
	log.end(sp, int64(f.raw), 0)
	if err != nil {
		return fmt.Errorf("autotune: %w", err)
	}
	r.add(f.key+".tune_s", ta.Seconds())
	r.add("candidates", float64(len(rep.Candidates)))
	r.add("sample_points", float64(rep.SamplePoints))
	for _, c := range rep.Candidates {
		r.add("candidate_ms", 1e3*c.Duration.Seconds())
	}
	r.add("knobs_matched", float64(knobsMatched(est.Pipeline, pipe)))

	sp = log.begin("compress")
	t0 = time.Now()
	blob, err := core.Compress(f.ds, f.eb, pipe, core.Options{Workers: 1, Trace: log.collector()})
	tc := time.Since(t0)
	log.end(sp, int64(f.raw), int64(len(blob)))
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	r.add(f.key+".estimate_s", te.Seconds())
	r.add(f.key+".compress_s", tc.Seconds())

	var sse float64
	for i := 0; i < decodeReps; i++ {
		// Only the first decode of a traced pass is traced, so the span
		// totals stay one decode per operation.
		dlog := log
		if i > 0 {
			dlog = nil
		}
		runtime.GC()
		sp = dlog.begin("decompress")
		t0 = time.Now()
		recon, _, err := core.DecompressWithOptions(blob, core.DecompressOptions{Workers: 1, Trace: dlog.collector()})
		td := time.Since(t0)
		dlog.end(sp, int64(len(blob)), int64(len(recon)*4))
		if err != nil {
			return fmt.Errorf("decompress: %w", err)
		}
		if sse, err = f.ref.check(recon); err != nil {
			return err
		}
		r.add(f.key+".decompress_s", td.Seconds())
	}
	r.add(f.key+".ratio", f.raw/float64(len(blob)))
	r.add(f.key+".psnr_db", f.ref.psnr(sse))
	return nil
}

// decodeReps is how often a pass decodes each tuned blob. A pass takes
// about 2 s, so a run holds only a handful; a decode takes tens of
// milliseconds, and repeating it gives decompress_mb_s as many samples as
// the archive workloads have.
const decodeReps = 6

// checkEstimate compresses the field with the estimated pipeline once: the
// ratio it actually reaches grades the estimate, and its decode is checked
// like every other output.
func (t *tuneBench) checkEstimate(r *run, f *tuneField) {
	if f.est == nil {
		return
	}
	blob, err := core.Compress(f.ds, f.eb, f.est.Pipeline, core.Options{Workers: 1})
	var recon []float32
	if err == nil {
		recon, _, err = core.Decompress(blob)
	}
	var sse float64
	if err == nil {
		sse, err = f.ref.check(recon)
	}
	r.check(f.key+" estimated pipeline", err)
	if err != nil {
		return
	}
	actual := f.raw / float64(len(blob))
	r.add("est_err_pct", 100*math.Abs(f.est.Ratio-actual)/actual)
	if !f.search {
		r.add(f.key+".ratio", actual)
		r.add(f.key+".psnr_db", f.ref.psnr(sse))
	}
}

func (t *tuneBench) metrics(r *run) (map[string]float64, error) {
	s := r.samples
	var raw, cold, decomp, estMs, featMs, tuneS float64
	var ratios, psnr []float64
	searched := 0
	for _, f := range t.fields {
		estMs += median(s[f.key+".estimate_ms"])
		featMs += median(s[f.key+".features_ms"])
		if len(s[f.key+".ratio"]) == 0 {
			return nil, errNoSamples
		}
		ratios = append(ratios, median(s[f.key+".ratio"]))
		psnr = append(psnr, median(s[f.key+".psnr_db"]))
		if !f.search {
			continue
		}
		searched++
		raw += f.raw
		// Each stage at its fastest: with a handful of passes per run, the
		// fastest whole pass would carry the slowdowns of whichever stages
		// a neighbour happened to hit in it.
		cold += best(s[f.key+".estimate_s"]) + best(s[f.key+".tune_s"]) + best(s[f.key+".compress_s"])
		decomp += best(s[f.key+".decompress_s"])
		tuneS += median(s[f.key+".tune_s"])
	}
	if r.traced {
		n := float64(len(t.fields))
		m := layersOf(r.spans).codecMetrics()
		m["trace.overhead_pct"] = overheadPct(r)
		m["tune.s"] = tuneS / float64(searched)
		m["tune.candidates"] = mean(s["candidates"])
		m["tune.ms_per_candidate"] = mean(s["candidate_ms"])
		m["tune.sample_points"] = mean(s["sample_points"])
		m["tune.period_detect_ms"] = mean(stageMillis(r.spans, "tune/detect-period"))
		m["estimate.ms"] = estMs / n
		m["estimate.features_ms"] = featMs / n
		m["estimate.confidence"] = mean(s["confidence"])
		m["estimate.knobs_matched"] = mean(s["knobs_matched"])
		m["estimate.ratio_err_pct"] = mean(s["est_err_pct"])
		return m, nil
	}
	return map[string]float64{
		"compress_mb_s":   raw / 1e6 / cold,
		"decompress_mb_s": raw / 1e6 / decomp,
		"ratio":           geomean(ratios),
		"psnr_db":         mean(psnr),
		"alloc_b_per_pt":  median(s["alloc"]),
	}, nil
}

// knobsMatched counts the decided pipeline knobs on which the estimate
// agrees with the tuner: permutation, fusion, fitting, classification,
// period and level alpha.
func knobsMatched(est, tuned core.Pipeline) int {
	n := 0
	for _, same := range []bool{
		equalInts(est.Perm, tuned.Perm),
		est.Fusion.String() == tuned.Fusion.String(),
		est.Fitting == tuned.Fitting,
		est.Classify == tuned.Classify,
		est.Period == tuned.Period,
		est.LevelAlpha == tuned.LevelAlpha,
	} {
		if same {
			n++
		}
	}
	return n
}

// stageMillis lists the durations of the codec stage records named name.
func stageMillis(l *spanLog, name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.stage && s.Name == name {
			out = append(out, (s.End-s.Start)/1e3)
		}
	}
	return out
}
