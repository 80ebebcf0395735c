package main

import (
	"fmt"
	"time"

	"cliz/internal/core"
	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/predict"
)

// archive is a closed loop of compress → decompress → check round trips on
// one cropped field under a pinned pipeline, on one goroutine with
// Workers=1: the plain single-threaded baseline of the ssh, cesm and
// hurricane workloads.
type archive struct {
	ds   *dataset.Dataset
	eb   float64
	pipe core.Pipeline
	ref  *reference
	raw  float64 // input bytes
}

func setupSSH(r *run) (instance, error) {
	// Periodic template/residual/compose, the mask, and a non-identity
	// permutation under the fused layout: pinned so no other workload
	// needs them.
	return setupArchive(r, sshField, 1e-2, func(ds *dataset.Dataset) core.Pipeline {
		return core.Pipeline{Perm: []int{2, 0, 1}, Fusion: grid.NoFusion(3),
			Fitting: predict.Cubic, UseMask: true, Period: 12, LevelAlpha: 1.25}
	})
}

func setupCESM(r *run) (instance, error) {
	return setupArchive(r, cesmField, 1e-2, func(ds *dataset.Dataset) core.Pipeline {
		return core.Pipeline{Perm: []int{0, 1, 2}, Fusion: grid.NoFusion(3),
			Fitting: predict.Linear, LevelAlpha: 1.25}
	})
}

func setupHurricane(r *run) (instance, error) {
	// A bound of 1e-5 leaves a ratio near 3.5, so the coders carry most of
	// the bits.
	return setupArchive(r, hurricaneField, 1e-5, core.Default)
}

func setupArchive(r *run, field sized, rel float64, pipe func(*dataset.Dataset) core.Pipeline) (instance, error) {
	ds, err := cropField(field.pick(r.small), seedRNG(r.seed, 1))
	if err != nil {
		return nil, err
	}
	eb := ds.AbsErrorBound(rel)
	return &archive{ds: ds, eb: eb, pipe: pipe(ds), ref: newReference(ds, eb),
		raw: float64(len(ds.Data) * 4)}, nil
}

func (a *archive) inputs() []field { return []field{{a.ds.Dims, a.ds.Data}} }

func (a *archive) warm(r *run)    { a.op(r, false) }
func (a *archive) measure(r *run) { closedLoop(r, func(traced bool) { a.op(r, traced) }) }
func (a *archive) close()         {}

// op is one round trip. Allocation is counted around each call and the
// check runs outside both timings.
func (a *archive) op(r *run, traced bool) {
	log := r.log(traced)
	log.beginOp()
	points := float64(len(a.ds.Data))

	sp := log.begin("compress")
	a0 := heapAllocs()
	t0 := time.Now()
	blob, err := core.Compress(a.ds, a.eb, a.pipe, core.Options{Workers: 1, Trace: log.collector()})
	tc := time.Since(t0)
	a1 := heapAllocs()
	log.end(sp, int64(a.raw), int64(len(blob)))
	if err != nil {
		r.check("compress", err)
		return
	}

	sp = log.begin("decompress")
	a2 := heapAllocs()
	t0 = time.Now()
	recon, dims, err := core.DecompressWithOptions(blob, core.DecompressOptions{Workers: 1, Trace: log.collector()})
	td := time.Since(t0)
	a3 := heapAllocs()
	log.end(sp, int64(len(blob)), int64(len(recon)*4))
	if err == nil && !equalInts(dims, a.ds.Dims) {
		err = fmt.Errorf("decoded dims %v, want %v", dims, a.ds.Dims)
	}
	var sse float64
	if err == nil {
		sse, err = a.ref.check(recon)
	}
	r.check("round trip", err)
	if err != nil {
		return
	}
	r.add("compress_s", tc.Seconds())
	r.add("decompress_s", td.Seconds())
	r.add(opKey(traced), (tc + td).Seconds())
	r.add("ratio", a.raw/float64(len(blob)))
	r.add("psnr_db", a.ref.psnr(sse))
	if !traced {
		r.add("compress_alloc", (a1-a0)/points)
		r.add("decompress_alloc", (a3-a2)/points)
		r.add("alloc", (a1-a0+a3-a2)/points)
	}
}

func (a *archive) metrics(r *run) (map[string]float64, error) {
	s := r.samples
	if len(s["compress_s"]) == 0 {
		return nil, errNoSamples
	}
	if r.traced {
		m := layersOf(r.spans).codecMetrics()
		m["core.compress_alloc_b_per_pt"] = median(s["compress_alloc"])
		m["core.decompress_alloc_b_per_pt"] = median(s["decompress_alloc"])
		m["trace.overhead_pct"] = overheadPct(r)
		return m, nil
	}
	return map[string]float64{
		"compress_mb_s":   a.raw / 1e6 / best(s["compress_s"]),
		"decompress_mb_s": a.raw / 1e6 / best(s["decompress_s"]),
		"ratio":           median(s["ratio"]),
		"psnr_db":         median(s["psnr_db"]),
		"alloc_b_per_pt":  median(s["alloc"]),
	}, nil
}

func equalInts(a, b []int) bool {
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
