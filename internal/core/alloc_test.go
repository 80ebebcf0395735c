package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/predict"
)

// allocCase is one round trip of TestRoundTripAllocBytes.
type allocCase struct {
	name string
	ds   *dataset.Dataset
	p    Pipeline
	// extra is the allowance beyond the per-point floor, in bytes per
	// point: the logical-order validity of a masked unit (a bool per
	// point) and the periodic template's own round trip.
	extra float64
}

func allocCases(t *testing.T) []allocCase {
	cesm := datagen.CESMT(0.05)
	masked := func(dims []int) *dataset.Dataset {
		data, v := maskDigestInput(dims, false, 1e35)
		return &dataset.Dataset{Name: "masked", Data: data, Dims: dims, Lead: dataset.LeadTime,
			Mask: v.hm, FillValue: 1e35}
	}
	sshPipe := Pipeline{Perm: []int{2, 0, 1}, Fusion: grid.NoFusion(3), Fitting: predict.Cubic,
		UseMask: true, LevelAlpha: 1.25}
	periodic := sshPipe
	periodic.Period = 12
	cases := []allocCase{
		{"unmasked", cesm, Pipeline{Perm: []int{0, 1, 2}, Fusion: grid.NoFusion(3),
			Fitting: predict.Linear, LevelAlpha: 1.25}, 0},
		{"masked", masked([]int{96, 48, 64}), sshPipe, 1},
		// The template is 12 of 288 steps, 1/24 of the volume, and its
		// round trip is allowed 24 B per template point.
		{"masked-periodic", masked([]int{288, 32, 40}), periodic, 1 + 24.0/24},
	}
	for _, c := range cases {
		if err := c.ds.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return cases
}

// TestRoundTripAllocBytes bounds the bytes one warm Compress and one
// Decompress allocate at Workers=1. The floor of a round trip is two
// full-volume buffers a side: the work copy the engines predict in and the
// bins on compress, the bins and the output on decode. Everything else —
// code tables, the coded sections, the blob — scales with the blob or not
// at all, so each side gets 8.5 B/pt plus a fixed 64 KiB, plus the case's
// allowance. A full-volume staging copy of the symbols (4 B/pt) fails it.
// GC is held off from the warm-up on, and the test runs on one P, so the
// warm pools (flate coders, histograms) stay filled: a pool miss would cost
// a flate writer's half megabyte.
func TestRoundTripAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const perPoint, fixed = 8.5, 64 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range allocCases(t) {
		eb := c.ds.AbsErrorBound(1e-2)
		opt := Options{Workers: 1}
		gc := debug.SetGCPercent(-1)
		blob, err := Compress(c.ds, eb, c.p, opt) // warm the pools
		if err != nil {
			debug.SetGCPercent(gc)
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, _, err := Decompress(blob); err != nil {
			debug.SetGCPercent(gc)
			t.Fatalf("%s: %v", c.name, err)
		}
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		blob, err = Compress(c.ds, eb, c.p, opt)
		runtime.ReadMemStats(&m1)
		_, _, derr := Decompress(blob)
		runtime.ReadMemStats(&m2)
		debug.SetGCPercent(gc)
		if err != nil || derr != nil {
			t.Fatalf("%s: %v %v", c.name, err, derr)
		}
		pts := float64(len(c.ds.Data))
		limit := (perPoint+c.extra)*pts + fixed
		for _, side := range []struct {
			name  string
			bytes uint64
		}{{"compress", m1.TotalAlloc - m0.TotalAlloc}, {"decompress", m2.TotalAlloc - m1.TotalAlloc}} {
			t.Logf("%s %s: %.2f B/pt (limit %.2f)", c.name, side.name, float64(side.bytes)/pts, limit/pts)
			if float64(side.bytes) > limit {
				t.Errorf("%s %s allocates %d bytes (%.2f B/pt), over the %.0f-byte limit (%.2f B/pt)",
					c.name, side.name, side.bytes, float64(side.bytes)/pts, limit, limit/pts)
			}
		}
	}
}
