package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/mask"
)

// fieldSpec is one archive input: a datagen field generated at a fixed
// scale and the window cropped out of it at a seed-derived origin. The
// crop keeps dims and statistics fixed while the seed moves the window, so
// the bits vary and the amount of work does not.
type fieldSpec struct {
	name  string // datagen field name
	scale float64
	crop  []int
	// step0 makes crop origins along dim 0 multiples of it; 12 keeps a
	// monthly field's annual phase.
	step0 int
	// shift, when positive, keeps the origin within shift cells of the
	// centred window along every axis, so seeds move the bits but not the
	// work: anywhere in the field, CESM-T's ~10000× ratio (a few kilobytes
	// that hinge on a handful of rough columns) moved by ±15% from seed to
	// seed, and the tuner picked other pipelines for other SSH windows.
	shift int
}

// sized pairs a full-size input with the small one the package tests run.
type sized struct{ full, small fieldSpec }

func (s sized) pick(small bool) fieldSpec {
	if small {
		return s.small
	}
	return s.full
}

var (
	// sshField is 8.1 MB of masked monthly sea-surface height.
	sshField = sized{
		full:  fieldSpec{"SSH", 0.3, []int{264, 96, 80}, 12, 4},
		small: fieldSpec{"SSH", 0.1, []int{24, 16, 16}, 12, 4},
	}
	// cesmField is 42 MB of smooth atmosphere temperature, far beyond L2.
	cesmField = sized{
		full:  fieldSpec{"CESM-T", 0.3, []int{26, 450, 900}, 1, 8},
		small: fieldSpec{"CESM-T", 0.05, []int{26, 64, 128}, 1, 8},
	}
	// hurricaneField is 1.5 MB of hurricane temperature, resident in L2.
	hurricaneField = sized{
		full:  fieldSpec{"Hurricane-T", 0.3, []int{25, 125, 125}, 1, 4},
		small: fieldSpec{"Hurricane-T", 0.1, []int{8, 24, 24}, 1, 4},
	}
	// tuneCESMField is the 4.7 MB CESM-T window the tuner workload
	// estimates; generating the 42 MB one three times per run would make
	// set-up dwarf the 40 ms estimate.
	tuneCESMField = sized{
		full:  fieldSpec{"CESM-T", 0.1, []int{26, 150, 300}, 1, 8},
		small: fieldSpec{"CESM-T", 0.05, []int{26, 32, 64}, 1, 8},
	}
)

// cropField generates spec's field and cuts the crop out of it at an origin
// drawn from rng. A mask is cropped with the data.
func cropField(spec fieldSpec, rng *rand.Rand) (*dataset.Dataset, error) {
	src, err := datagen.ByName(spec.name, spec.scale)
	if err != nil {
		return nil, err
	}
	if len(src.Dims) != len(spec.crop) {
		return nil, fmt.Errorf("crop %v does not fit %s %v", spec.crop, spec.name, src.Dims)
	}
	origin := make([]int, len(src.Dims))
	for i, d := range src.Dims {
		step := 1
		if i == 0 && spec.step0 > 1 {
			step = spec.step0
		}
		room := d - spec.crop[i]
		if room < 0 {
			return nil, fmt.Errorf("crop %v does not fit %s %v", spec.crop, spec.name, src.Dims)
		}
		lo, hi := 0, room
		if spec.shift > 0 {
			lo, hi = max(room/2-spec.shift, 0), min(room/2+spec.shift, room)
		}
		first := (lo + step - 1) / step * step
		if first > hi {
			first = hi / step * step
		}
		origin[i] = first + rng.Intn((hi-first)/step+1)*step
	}
	ds := &dataset.Dataset{
		Name:      src.Name,
		Data:      grid.Extract(src.Data, src.Dims, grid.Block{Origin: origin, Size: spec.crop}),
		Dims:      append([]int(nil), spec.crop...),
		Lead:      src.Lead,
		Periodic:  src.Periodic,
		FillValue: src.FillValue,
	}
	if src.Mask != nil {
		n := len(spec.crop)
		regions := grid.Extract(src.Mask.Regions, src.Dims[n-2:],
			grid.Block{Origin: origin[n-2:], Size: spec.crop[n-2:]})
		ds.Mask = mask.New(spec.crop[n-2], spec.crop[n-1], regions)
	}
	return ds, ds.Validate()
}

// seedRNG derives an independent generator for one input of a run; salt
// tells apart the inputs drawn from one seed.
func seedRNG(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// field is one generated input: its extents and values.
type field struct {
	dims []int
	data []float32
}

// reference is what a decode must reproduce: the input, which points are
// valid, the fill value every other point must hold, and the bound.
type reference struct {
	data  []float32
	valid []bool // nil: every point is valid
	fill  float32
	eb    float64
	// span is the value range over the valid points, nvalid their count;
	// PSNR is taken against them.
	span   float64
	nvalid int
}

func newReference(ds *dataset.Dataset, eb float64) *reference {
	lo, hi := ds.ValueRange()
	return &reference{data: ds.Data, valid: ds.Validity(), fill: ds.FillValue, eb: eb,
		span: hi - lo, nvalid: ds.ValidPoints()}
}

// boundSlack absorbs the float64 rounding of the error comparison itself.
const boundSlack = 1 + 1e-9

// check verifies that recon decodes the reference: the same length, every
// valid point within the bound and every masked point holding the fill
// value bit for bit. It returns the sum of squared errors.
func (ref *reference) check(recon []float32) (float64, error) {
	if len(recon) != len(ref.data) {
		return 0, fmt.Errorf("decoded %d points, want %d", len(recon), len(ref.data))
	}
	if ref.nvalid == 0 {
		return 0, errors.New("no valid points")
	}
	tol := ref.eb * boundSlack
	fill := math.Float32bits(ref.fill)
	sse := 0.0
	for i, v := range ref.data {
		if ref.valid != nil && !ref.valid[i] {
			if math.Float32bits(recon[i]) != fill {
				return 0, fmt.Errorf("masked point %d holds %g, not the fill value %g", i, recon[i], ref.fill)
			}
			continue
		}
		d := float64(recon[i]) - float64(v)
		if !(math.Abs(d) <= tol) {
			return 0, fmt.Errorf("point %d off by %g, over the bound %g", i, d, ref.eb)
		}
		sse += d * d
	}
	return sse, nil
}

// psnr converts a sum of squared errors over the valid points to dB.
func (ref *reference) psnr(sse float64) float64 {
	return 20 * math.Log10(ref.span/math.Sqrt(sse/float64(ref.nvalid)))
}
