package core

import (
	"fmt"
	"math/rand"

	"cliz/internal/dataset"
	"cliz/internal/fft"
)

// DetectPeriod estimates the dataset's period along the leading (time)
// dimension from the magnitude spectra of sampled rows (paper §VI-D,
// Fig. 8). It returns 0 when the data shows no usable periodicity. The
// sampling and FFT are deterministic for a given dataset.
func DetectPeriod(ds *dataset.Dataset, sampleRows int) int {
	return DetectPeriodFull(ds, sampleRows).Period
}

// DetectPeriodFull is DetectPeriod with the full spectral evidence: the
// adopted peak's strength and the averaged spectrum ride along for callers
// that grade confidence (the fast estimator). The returned Period is already
// gated exactly as DetectPeriod gates it — estimator and tuner share one
// periodicity breakpoint by construction.
func DetectPeriodFull(ds *dataset.Dataset, sampleRows int) fft.PeriodResult {
	if ds.Lead != dataset.LeadTime || len(ds.Dims) < 2 {
		return fft.PeriodResult{}
	}
	nT := ds.Dims[0]
	if nT < 8 {
		return fft.PeriodResult{}
	}
	plane := 1
	for _, d := range ds.Dims[1:] {
		plane *= d
	}
	var valid []bool
	if ds.Mask != nil {
		// Validity of one horizontal plane, tiled over any inner height dim.
		valid, _ = ds.Mask.Broadcast(ds.Dims[1:])
	}
	if sampleRows <= 0 {
		sampleRows = 10 // the paper's Fig. 8 uses 10 rows
	}
	rng := rand.New(rand.NewSource(12345))
	rows := make([][]float64, 0, sampleRows)
	for attempts := 0; attempts < sampleRows*20 && len(rows) < sampleRows; attempts++ {
		p := rng.Intn(plane)
		if valid != nil && !valid[p] {
			continue
		}
		row := make([]float64, nT)
		for t := 0; t < nT; t++ {
			row[t] = float64(ds.Data[t*plane+p])
		}
		rows = append(rows, row)
	}
	res := fft.DetectPeriod(rows, 0.7, 5)
	if res.Period >= 2 && nT < 2*res.Period {
		// Fewer than two full cycles: periodic extraction is untestable, so
		// the tuner never considers this period. Zero it here so every
		// caller sees the gated value.
		res.Period = 0
	}
	return res
}

// PeriodicResidual exposes the periodic component extraction for analysis
// (paper Fig. 9): it compresses the dataset's template with the given
// pipeline and returns data − reconstructed-template — exactly the residual
// the periodic compression path encodes.
func PeriodicResidual(ds *dataset.Dataset, period int, tmplPipe Pipeline) ([]float32, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if period < 2 || ds.Dims[0] < 2*period {
		return nil, fmt.Errorf("core: period %d unusable for dims %v", period, ds.Dims)
	}
	var v validity
	if tmplPipe.UseMask {
		v.hm = ds.Mask
	}
	valid, err := v.bitmap(ds.Dims)
	if err != nil {
		return nil, err
	}
	tmplData, tmplDims, tmplValid := buildTemplate(ds.Data, ds.Dims, valid, period, ds.FillValue)
	tv := validity{}
	if v.hm != nil {
		tv.hm = v.hm
	} else if tmplValid != nil {
		tv.pts = tmplValid
	}
	tp := templatePipeline(tmplPipe, len(tmplDims))
	_, tmplRecon, err := compressUnit(tmplData, tmplDims, tv, 1e-6, tp, ds.FillValue, Options{}, nil)
	if err != nil {
		return nil, err
	}
	return subtractTemplate(ds.Data, tmplRecon, ds.Dims, period, valid, ds.FillValue), nil
}

// buildTemplate computes the template data (paper §VI-D): the per-phase mean
// across all periods, using valid contributions only. Output dims are
// [period, dims[1:]...]. It also returns the template's validity bitmap
// (nil when valid is nil): a template cell is valid when at least one
// contributing point was valid; invalid cells hold the fill value.
func buildTemplate(data []float32, dims []int, valid []bool, period int, fill float32) ([]float32, []int, []bool) {
	nT := dims[0]
	plane := 1
	for _, d := range dims[1:] {
		plane *= d
	}
	tmplDims := append([]int{period}, dims[1:]...)
	sum := make([]float64, period*plane)
	var cnt []int32
	if valid != nil {
		cnt = make([]int32, period*plane)
	} else {
		cnt = make([]int32, period) // one counter per phase suffices
	}
	for t := 0; t < nT; t++ {
		ph := t % period
		off := t * plane
		toff := ph * plane
		if valid == nil {
			cnt[ph]++
			for p := 0; p < plane; p++ {
				sum[toff+p] += float64(data[off+p])
			}
			continue
		}
		for p := 0; p < plane; p++ {
			if valid[off+p] {
				sum[toff+p] += float64(data[off+p])
				cnt[toff+p]++
			}
		}
	}
	out := make([]float32, period*plane)
	var tmplValid []bool
	if valid != nil {
		tmplValid = make([]bool, period*plane)
		for i := range out {
			if cnt[i] == 0 {
				out[i] = fill
				continue
			}
			tmplValid[i] = true
			out[i] = float32(sum[i] / float64(cnt[i]))
		}
		return out, tmplDims, tmplValid
	}
	for ph := 0; ph < period; ph++ {
		inv := 1.0 / float64(cnt[ph])
		for p := 0; p < plane; p++ {
			idx := ph*plane + p
			out[idx] = float32(sum[idx] * inv)
		}
	}
	return out, tmplDims, nil
}

// subtractTemplate returns data − tiled template (residual); masked points
// hold the fill value. The template passed here is normally the *lossy
// reconstruction* so the residual's error bound alone bounds the composed
// error.
func subtractTemplate(data, tmpl []float32, dims []int, period int, valid []bool, fill float32) []float32 {
	nT := dims[0]
	plane := len(data) / nT
	out := make([]float32, len(data))
	for t := 0; t < nT; t++ {
		ph := t % period
		for p := 0; p < plane; p++ {
			idx := t*plane + p
			if valid != nil && !valid[idx] {
				out[idx] = fill
				continue
			}
			out[idx] = data[idx] - tmpl[ph*plane+p]
		}
	}
	return out
}

// addTemplate reverses subtractTemplate (without mask handling — callers
// re-apply fill values afterwards).
func addTemplate(residual, tmpl []float32, dims []int, period int) []float32 {
	nT := dims[0]
	plane := len(residual) / nT
	out := make([]float32, len(residual))
	for t := 0; t < nT; t++ {
		ph := t % period
		for p := 0; p < plane; p++ {
			out[t*plane+p] = residual[t*plane+p] + tmpl[ph*plane+p]
		}
	}
	return out
}
