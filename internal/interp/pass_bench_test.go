package interp

import (
	"fmt"
	"testing"
	"time"

	"cliz/internal/grid"
	"cliz/internal/predict"
)

// BenchmarkPass times every (level, dimension) pass of the engine on its
// own and reports ns per target point of each as "L<level>d<dim>-ns/pt",
// for encode and decode. It runs a grid far beyond L2 (26×450×900, linear
// fitting at 1% of the value range, like the cesm-smooth-large benchmark
// workload) and an L2-resident one (25×125×125, cubic at 1e-5, like
// hurricane-tight). A third case is a 66×96×80 field read under the
// permutation [2,0,1] through the fused layout, masked in runs of 97
// points (cubic at 1e-2, like ssh-periodic-masked): the logical-order bins
// and mask are then read with a large logical stride.
//
//	go test -run='^$' -bench=BenchmarkPass ./internal/interp
func BenchmarkPass(b *testing.B) {
	for _, bc := range []struct {
		dims []int
		perm []int // nil: identity, unmasked
		fit  predict.Fitting
		rel  float64
	}{
		{[]int{26, 450, 900}, nil, predict.Linear, 1e-2},
		{[]int{25, 125, 125}, nil, predict.Cubic, 1e-5},
		{[]int{66, 96, 80}, []int{2, 0, 1}, predict.Cubic, 1e-2},
	} {
		name := fmt.Sprintf("%dx%dx%d", bc.dims[0], bc.dims[1], bc.dims[2])
		if bc.perm != nil {
			name += fmt.Sprintf("-perm%d%d%d-masked", bc.perm[0], bc.perm[1], bc.perm[2])
		}
		b.Run(name, func(b *testing.B) {
			data := smoothField(bc.dims, 1)
			// smoothField sums one ±10 sine per dimension.
			cfg := Config{EB: bc.rel * 20 * float64(len(bc.dims)), Fitting: bc.fit}
			lay := grid.IdentityLayout(bc.dims)
			if bc.perm != nil {
				lay, cfg.Valid = runMaskedLayout(b, bc.dims, bc.perm, 97)
			}
			work := make([]float32, len(data))
			bins := make([]int32, len(data))
			b.Run("encode", func(b *testing.B) {
				timedPasses(b, func() *engine {
					copy(work, data)
					e, err := newEngine(lay, cfg)
					if err != nil {
						b.Fatal(err)
					}
					e.work, e.bins = work, bins
					return e
				})
			})
			copy(work, data)
			lits, err := CompressLayout(work, lay, cfg, bins)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("decode", func(b *testing.B) {
				timedPasses(b, func() *engine {
					e, err := newEngine(lay, cfg)
					if err != nil {
						b.Fatal(err)
					}
					e.decode = true
					e.work, e.bins, e.lits = work, bins, lits
					return e
				})
			})
		})
	}
}

// runMaskedLayout returns the fused layout of dims under perm and a
// validity in its logical order that masks alternate runs of run points of
// the original array.
func runMaskedLayout(b *testing.B, dims, perm []int, run int) (grid.Layout, []bool) {
	lay, ok := grid.FusedLayout(dims, perm, grid.NoFusion(len(dims)))
	if !ok {
		b.Fatalf("no fused layout for %v under %v", dims, perm)
	}
	valid := make([]bool, grid.Volume(dims))
	for i := range valid {
		valid[i] = (i/run)%2 == 0
	}
	tvalid, err := grid.Transpose(valid, dims, perm)
	if err != nil {
		b.Fatal(err)
	}
	return lay, tvalid
}

// timedPasses runs b.N traversals of fresh engines, timing each pass (with
// its flush) separately, and reports the ns per target point of each and
// of all passes together.
func timedPasses(b *testing.B, fresh func() *engine) {
	type key struct{ level, d int }
	var order []key
	spent := map[key]time.Duration{}
	points := map[key]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := fresh()
		b.StartTimer()
		walk(e, func(level, d int, pass, flush func()) {
			t0 := time.Now()
			pass()
			flush()
			dt := time.Since(t0)
			if e.err != nil {
				b.Fatal(e.err)
			}
			if 1<<(level-1) >= e.dims[d] {
				return
			}
			k := key{level, d}
			if _, seen := points[k]; !seen {
				order = append(order, k)
			}
			spent[k] += dt
			points[k] += passPoints(e.dims, d, 1<<(level-1))
		})
	}
	var total time.Duration
	var all int
	for _, k := range order {
		b.ReportMetric(float64(spent[k].Nanoseconds())/float64(points[k]),
			fmt.Sprintf("L%dd%d-ns/pt", k.level, k.d))
		total += spent[k]
		all += points[k]
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(all), "ns/pt")
}

// passPoints counts the targets of the pass along d at stride s.
func passPoints(dims []int, d, s int) int {
	n := 1
	for k, ext := range dims {
		switch {
		case k == d:
			n *= (ext + s - 1) / (2 * s)
		case k < d:
			n *= (ext + s - 1) / s
		default:
			n *= (ext + 2*s - 1) / (2 * s)
		}
	}
	return n
}
