package interp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cliz/internal/grid"
	"cliz/internal/predict"
	"cliz/internal/quant"
)

// refVisit calls visit for every point the engine handles, in the engine's
// order: the origin first (d = −1, at the top level), then per level from
// coarse to fine and per dimension d, the targets of that pass — the other
// coordinates in row-major order (coordinates before d on multiples of the
// stride, after d on multiples of twice the stride), the d coordinate
// innermost on odd multiples of the stride. It is written from that
// description, not from the engine's odometer.
func refVisit(dims []int, visit func(coord []int, level, d, stride int)) {
	n := len(dims)
	top := Levels(dims)
	coord := make([]int, n)
	visit(coord, top, -1, 0)
	for level := top; level >= 1; level-- {
		s := 1 << (level - 1)
		for d := 0; d < n; d++ {
			if s >= dims[d] {
				continue
			}
			var axes []int
			for k := 0; k < n; k++ {
				if k != d {
					axes = append(axes, k)
				}
			}
			axes = append(axes, d)
			var walk func(i int)
			walk = func(i int) {
				if i == n {
					visit(coord, level, d, s)
					return
				}
				ax := axes[i]
				start, step := 0, s
				switch {
				case ax == d:
					start, step = s, 2*s
				case ax > d:
					step = 2 * s
				}
				for c := start; c < dims[ax]; c += step {
					coord[ax] = c
					walk(i + 1)
				}
				coord[ax] = 0
			}
			walk(0)
		}
	}
}

// refQuantizer is the quantizer the engine uses at a level.
func refQuantizer(cfg Config, level int) quant.Quantizer {
	eb := cfg.EB
	if cfg.LevelEBFactor != nil {
		if f := cfg.LevelEBFactor(level); f > 0 {
			eb *= f
		}
	}
	radius := cfg.Radius
	if radius == 0 {
		radius = quant.DefaultRadius
	}
	return quant.New(eb, radius)
}

// refPredict is the scalar reference prediction of the point at coord from
// the values in work (logical row-major order): references outside the grid
// or masked are invalid, and predict.Predict* degrades the fit.
func refPredict(work []float32, dims []int, cfg Config, coord []int, d, stride int) float64 {
	if d < 0 {
		return 0
	}
	step := grid.Strides(dims)[d] * stride
	idx := grid.Index(coord, dims)
	ref := func(off int) (float64, bool) {
		x := coord[d] + off*stride
		j := idx + off*step
		if x < 0 || x >= dims[d] || (cfg.Valid != nil && !cfg.Valid[j]) {
			return 0, false
		}
		return float64(work[j]), true
	}
	if cfg.Fitting == predict.Cubic {
		var v [4]float64
		vm := 0
		for i, off := range [4]int{-3, -1, 1, 3} {
			var ok bool
			if v[i], ok = ref(off); ok {
				vm |= 1 << i
			}
		}
		return predict.PredictCubic(v, vm)
	}
	d1, ok1 := ref(-1)
	d2, ok2 := ref(1)
	vm := 0
	if ok1 {
		vm |= 1
	}
	if ok2 {
		vm |= 2
	}
	return predict.PredictLinear(d1, d2, vm)
}

// refCompress is the scalar reference encoder: quant.Quantize at every
// point, in the engine's order, over logical row-major data. Masked points
// keep their data.
func refCompress(data []float32, dims []int, cfg Config) (bins []int32, lits []float32, recon []float32) {
	recon = append([]float32(nil), data...)
	bins = make([]int32, len(data))
	refVisit(dims, func(coord []int, level, d, stride int) {
		idx := grid.Index(coord, dims)
		if cfg.Valid != nil && !cfg.Valid[idx] {
			return
		}
		pred := refPredict(recon, dims, cfg, coord, d, stride)
		bin, r, exact := refQuantizer(cfg, level).Quantize(pred, float64(recon[idx]))
		if exact {
			lits = append(lits, recon[idx])
		} else {
			recon[idx] = float32(r)
		}
		bins[idx] = bin
	})
	return bins, lits, recon
}

// refDecompress is the scalar reference decoder: quant.Recover at every
// point. Masked points stay zero.
func refDecompress(bins []int32, lits []float32, dims []int, cfg Config) ([]float32, error) {
	out := make([]float32, len(bins))
	pos := 0
	var err error
	refVisit(dims, func(coord []int, level, d, stride int) {
		idx := grid.Index(coord, dims)
		if err != nil || (cfg.Valid != nil && !cfg.Valid[idx]) {
			return
		}
		pred := refPredict(out, dims, cfg, coord, d, stride)
		var lit float64
		if bins[idx] == 0 {
			if pos >= len(lits) {
				err = ErrCorrupt
				return
			}
			lit = float64(lits[pos])
			pos++
		}
		out[idx] = float32(refQuantizer(cfg, level).Recover(pred, bins[idx], lit))
	})
	return out, err
}

// sameBits reports the first index where two float32 slices differ bit for
// bit, or −1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkKernel runs the engine (through the layout of perm and fusion fus
// over the original array, so physical and logical steps differ when perm
// is not the identity) and the scalar reference (over the transposed
// logical array, whose fusion is a reshape) and requires identical bins,
// literals, reconstruction and decode output — masked points included,
// which neither side writes — and a clean verify replay.
// The reference visits in line order, so identical literals hold the
// engine's memory-order traversal to the (line, x) literal order.
// cfg.Valid is given in original order.
func checkKernel(t *testing.T, data []float32, dims, perm []int, fus grid.Fusion, cfg Config) {
	t.Helper()
	lay, ok := grid.FusedLayout(dims, perm, fus)
	if !ok {
		t.Fatalf("no layout for %v perm %v fusion %v", dims, perm, fus)
	}
	logical, err := grid.Transpose(data, dims, perm)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Valid != nil {
		if cfg.Valid, err = grid.Transpose(cfg.Valid, dims, perm); err != nil {
			t.Fatal(err)
		}
	}
	ldims := lay.Dims

	work := append([]float32(nil), data...)
	bins := make([]int32, len(data))
	for i := range bins {
		bins[i] = -1 // the engine must overwrite every bin
	}
	lits, err := CompressLayout(work, lay, cfg, bins)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	wantBins, wantLits, wantRecon := refCompress(logical, ldims, cfg)
	for i := range bins {
		if bins[i] != wantBins[i] {
			t.Fatalf("bin %d: engine %d, reference %d", i, bins[i], wantBins[i])
		}
	}
	if i := sameBits(lits, wantLits); i >= 0 {
		t.Fatalf("literal %d differs: engine %d literals, reference %d", i, len(lits), len(wantLits))
	}
	recon, err := grid.Transpose(work, dims, perm)
	if err != nil {
		t.Fatal(err)
	}
	if i := sameBits(recon, wantRecon); i >= 0 {
		t.Fatalf("reconstruction %d: engine %#x, reference %#x",
			i, math.Float32bits(recon[i]), math.Float32bits(wantRecon[i]))
	}

	// Verify replay over the encoder's reconstruction checks every valid
	// point and finds no mismatch.
	handled := 0
	for i := range bins {
		if cfg.Valid == nil || cfg.Valid[i] {
			handled++
		}
	}
	if checked, err := VerifyLayout(bins, lits, lay, cfg, work, 1); err != nil || checked != handled {
		t.Fatalf("verify replay: %d of %d points checked, error %v", checked, handled, err)
	}

	out := make([]float32, len(data))
	if err := DecompressLayout(bins, lits, lay, cfg, out); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	wantOut, err := refDecompress(bins, lits, ldims, cfg)
	if err != nil {
		t.Fatalf("reference decompress: %v", err)
	}
	got, err := grid.Transpose(out, dims, perm)
	if err != nil {
		t.Fatal(err)
	}
	if i := sameBits(got, wantOut); i >= 0 {
		t.Fatalf("decode %d: engine %#x, reference %#x",
			i, math.Float32bits(got[i]), math.Float32bits(wantOut[i]))
	}
	// A literal stream one short must fail cleanly on both paths.
	if len(lits) > 0 {
		err := DecompressLayout(bins, lits[:len(lits)-1], lay, cfg, out)
		if _, rerr := refDecompress(bins, lits[:len(lits)-1], ldims, cfg); (err == nil) != (rerr == nil) {
			t.Fatalf("truncated literals: engine error %v, reference error %v", err, rerr)
		}
	}
}

// specials are the adversarial bit patterns: NaN payloads (quiet,
// signalling, negative), ±Inf, ±0, subnormals, the CESM fill value and the
// float32 extremes.
var specials = []uint32{
	0x7fc00000, 0x7fc00001, 0x7f800001, 0xffc12345, 0x7fbfffff,
	0x7f800000, 0xff800000,
	0x00000000, 0x80000000,
	0x00000001, 0x807fffff, 0x00400000,
	math.Float32bits(1e35), math.Float32bits(-1e35),
	0x7f7fffff, 0xff7fffff, 0x00800000,
}

// adversarialField mixes a smooth field with integer values (at eb = 0.5 a
// linear or cubic prediction of integers often puts qf exactly on k+½),
// values at and just past ±(radius−1) quanta from zero, and the special
// bit patterns above.
func adversarialField(dims []int, seed int64, eb float64, radius int32) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := smoothField(dims, seed)
	lim := float64(radius - 1)
	for i := range out {
		switch r := rng.Intn(20); {
		case r < 6:
			out[i] = float32(rng.Intn(41) - 20)
		case r < 8:
			edge := []float64{lim, lim + 0.5, lim - 0.5, lim + 1}[rng.Intn(4)]
			if rng.Intn(2) == 0 {
				edge = -edge
			}
			out[i] = float32(edge * 2 * eb)
		case r < 10:
			out[i] = math.Float32frombits(specials[rng.Intn(len(specials))])
		}
	}
	return out
}

func levelFactor(level int) float64 {
	if level < 1 {
		level = 1
	}
	return 1 / math.Min(math.Pow(1.5, float64(level-1)), 4)
}

// randomMask masks about a third of the points, in runs so that both
// isolated masked references and fully masked lines occur.
func randomMask(n int, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	v := make([]bool, n)
	for i := 0; i < n; {
		run := 1 + rng.Intn(6)
		ok := rng.Intn(3) != 0
		for j := 0; j < run && i < n; j++ {
			v[i] = ok
			i++
		}
	}
	return v
}

// kernelPerms returns the identity, the reversal and a rotation of n axes:
// the reversal makes the innermost physical dimension logical dimension 0,
// the rotation nests the outer dimensions out of logical order too.
func kernelPerms(n int) [][]int {
	ident, rev, rot := make([]int, n), make([]int, n), make([]int, n)
	for i := range ident {
		ident[i] = i
		rev[i] = n - 1 - i
		rot[i] = (i + 1) % n
	}
	return [][]int{ident, rev, rot}
}

// kernelLayouts calls f with every (permutation, fusion) pair of
// kernelPerms and grid.Compositions that has a fused layout.
func kernelLayouts(dims []int, f func(perm []int, fus grid.Fusion)) {
	for _, perm := range kernelPerms(len(dims)) {
		for _, fus := range grid.Compositions(len(dims)) {
			if _, ok := grid.FusedLayout(dims, perm, fus); ok {
				f(perm, fus)
			}
		}
	}
}

// TestKernelMatchesReference holds the fused kernels to the scalar
// reference traversal over linear and cubic fitting, masked and unmasked
// grids, odd and even extents, 1- to 4-D grids, per-level bounds, a small
// and the default radius, permuted and fused layouts, and adversarial float
// bit patterns.
func TestKernelMatchesReference(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {16}, {17}, {64}, {9, 12}, {8, 13}, {5, 6, 7}, {6, 6, 6},
		{3, 1, 10}, {33, 2}, {4, 5, 3, 6}, {2, 7, 1, 9}, {5, 3, 4, 2},
	}
	seed := int64(0)
	for _, dims := range shapes {
		vol := grid.Volume(dims)
		for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
			for _, radius := range []int32{8, 0} {
				for _, eb := range []float64{0.5, 1e-3, 1e308} {
					for _, masked := range []bool{false, true} {
						kernelLayouts(dims, func(perm []int, fus grid.Fusion) {
							seed++
							cfg := Config{EB: eb, Radius: radius, Fitting: fit}
							if seed%2 == 0 {
								cfg.LevelEBFactor = levelFactor
							}
							if masked {
								cfg.Valid = randomMask(vol, seed)
							}
							r := radius
							if r == 0 {
								r = quant.DefaultRadius
							}
							data := adversarialField(dims, seed, eb, r)
							name := fmt.Sprintf("%v/%v/r%d/eb%g/mask=%v/perm%v", dims, fit, radius, eb, masked, perm)
							if len(fus.Groups) < len(dims) {
								name += "/fuse" + fus.String()
							}
							t.Run(name, func(t *testing.T) {
								checkKernel(t, data, dims, perm, fus, cfg)
							})
						})
					}
				}
			}
		}
	}
}

// TestKernelLiteralOrder runs literal-heavy fields — NaN, ±Inf and 1e35 on
// every k-th point of a smooth field, under radius 2, so most targets of
// every pass are literals — through every layout of kernelLayouts, and
// requires the literal stream of the scalar line-order reference. It also
// checks that the engine did visit literals out of (line, x) order, so the
// stream's order is really at stake.
func TestKernelLiteralOrder(t *testing.T) {
	inf := float32(math.Inf(1))
	spec := []float32{float32(math.NaN()), inf, -inf, 1e35}
	shapes := [][]int{{9, 12}, {5, 6, 7}, {7, 1, 10}, {4, 5, 3, 6}, {3, 6, 2, 5}}
	for si, dims := range shapes {
		vol := grid.Volume(dims)
		for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
			for _, masked := range []bool{false, true} {
				kernelLayouts(dims, func(perm []int, fus grid.Fusion) {
					k := 3 + si%3
					data := smoothField(dims, int64(si))
					for i := 0; i < vol; i += k {
						data[i] = spec[(i/k)%len(spec)]
					}
					cfg := Config{EB: 1e-3, Radius: 2, Fitting: fit}
					if masked {
						cfg.Valid = randomMask(vol, int64(si))
					}
					name := fmt.Sprintf("%v/%v/mask=%v/perm%v/fuse%v", dims, fit, masked, perm, fus)
					t.Run(name, func(t *testing.T) {
						checkKernel(t, data, dims, perm, fus, cfg)
					})
					if !masked && crossRows(dims, perm, fus) && unorderedPasses(t, data, dims, perm, fus, cfg) == 0 {
						t.Errorf("%s: no pass visited its literals out of line order", name)
					}
				})
			}
		}
	}
}

// walk runs e's traversal as run does, handing each (level, dimension)
// pass to do, which must call pass and then flush; between the two, the
// pass's deferred targets are in e.deferred.
func walk(e *engine, do func(level, d int, pass, flush func())) {
	levels := Levels(e.dims)
	e.q = e.quantizerFor(levels)
	e.handle(0, e.base, 0, 0)
	e.flush()
	for level := levels; level >= 1; level-- {
		e.q = e.quantizerFor(level)
		for d := 0; d < e.n; d++ {
			do(level, d, func() { e.pass(d, 1<<(level-1)) }, e.flush)
		}
	}
}

// crossRows reports whether the layout's level-1 traversal has a pass
// that runs rows of at least two targets across a pass dimension with at
// least two targets per line, which visits literals out of line order.
func crossRows(dims, perm []int, fus grid.Fusion) bool {
	lay, _ := grid.FusedLayout(dims, perm, fus)
	inner := -1
	for k, ext := range lay.Dims {
		if ext > 1 && (inner < 0 || lay.Strides[k] < lay.Strides[inner]) {
			inner = k
		}
	}
	for d, ext := range lay.Dims {
		if d != inner && ext >= 4 && inner >= 0 && lay.Dims[inner] >= 3 {
			return true
		}
	}
	return false
}

// unorderedPasses encodes data (unmasked) pass by pass and counts the
// passes that deferred literals out of key order.
func unorderedPasses(t *testing.T, data []float32, dims, perm []int, fus grid.Fusion, cfg Config) int {
	t.Helper()
	lay, _ := grid.FusedLayout(dims, perm, fus)
	e, err := newEngine(lay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.work = append([]float32(nil), data...)
	e.bins = make([]int32, len(data))
	n := 0
	walk(e, func(level, d int, pass, flush func()) {
		pass()
		if !slices.IsSortedFunc(e.deferred, func(a, b deferred) int { return a.key - b.key }) {
			n++
		}
		flush()
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	return n
}

// TestDecodeLiteralUnderrunBounded holds bins that claim more literals than
// the stream has: all zero, and zero only on the finest pass along the last
// dimension (half the grid in one pass, after a clean decode of the rest).
// The decoder must fail with ErrCorrupt, and never defer more targets than
// there are literals, however large the pass.
func TestDecodeLiteralUnderrunBounded(t *testing.T) {
	dims := []int{48, 40, 36}
	lay := grid.IdentityLayout(dims)
	out := make([]float32, grid.Volume(dims))
	for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
		cfg := Config{EB: 1, Fitting: fit}
		res, err := Compress(smoothField(dims, 3), dims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		finest := append([]int32(nil), res.Bins...)
		for i := 1; i < len(finest); i += 2 { // odd last coordinate: dims[2] is even
			finest[i] = 0
		}
		lits := append(res.Literals, 1, 2, 3, 4, 5)
		for name, bins := range map[string][]int32{"all-zero": make([]int32, len(out)), "finest-pass": finest} {
			if err := DecompressLayout(bins, lits, lay, cfg, out); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v/%s: error %v, want ErrCorrupt", fit, name, err)
			}
			e, err := newEngine(lay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.decode, e.work, e.bins, e.lits = true, out, bins, lits
			e.run()
			if !errors.Is(e.err, ErrCorrupt) || len(e.deferred) > len(lits) {
				t.Fatalf("%v/%s: error %v, %d targets deferred for %d literals",
					fit, name, e.err, len(e.deferred), len(lits))
			}
			// The engine and its scratch; the deferred buffer comes from a pool.
			allocs := testing.AllocsPerRun(5, func() { _ = DecompressLayout(bins, lits, lay, cfg, out) })
			if allocs > 12 {
				t.Fatalf("%v/%s: %g allocations for a %d-literal stream", fit, name, allocs, len(lits))
			}
		}
	}
}

// TestKernelSignedZero: a prediction of −0 with a bin of k = 0 must
// reconstruct +0, as quant.Quantize does through its int32 bin (−0 + +0 is
// +0, while −0 + −0 would stay −0). The fields below steer a cubic and a
// linear interior point onto exactly that: their references are −0 and +0
// literals (NaN or 1e35 neighbours make those unpredictable), so the
// prediction is −0, and the target −0.1 rounds to k = −0.
func TestKernelSignedZero(t *testing.T) {
	nan, nz := float32(math.NaN()), float32(math.Copysign(0, -1))
	cases := []struct {
		name   string
		data   []float32
		fit    predict.Fitting
		radius int32
		target int
	}{
		// Cubic: point 7 is interior at stride 1 with references 4 (+0),
		// 6 (−0), 8 (−0) and 10 (+0); the NaN origin makes 4, 6 and 8
		// literals.
		{"cubic", []float32{nan, 5, 5, 5, 0, 5, nz, -0.1, nz, 5, 0, 5, 0}, predict.Cubic, 0, 7},
		// Linear: point 3 is interior with references 2 and 4, both −0
		// literals under radius 2 beside the 1e35 origin.
		{"linear", []float32{1e35, 0, nz, -0.1, nz}, predict.Linear, 2, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{EB: 0.5, Radius: c.radius, Fitting: c.fit}
			dims := []int{len(c.data)}
			checkKernel(t, c.data, dims, []int{0}, grid.NoFusion(1), cfg)
			res, err := Compress(c.data, dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float32bits(res.Recon[c.target]); got != 0 {
				t.Fatalf("target reconstructs to %#x, want +0", got)
			}
		})
	}
}

// FuzzKernel holds the fused kernels to the scalar reference over
// arbitrary float bit patterns, shapes, masks, bounds and radii.
//
// shape: low 2 bits pick 1–4 dimensions, then 4 bits per extent (1–16),
// then from bit 18 the fusion among grid.Compositions.
// mode: bit 0 cubic, bit 1 masked, bit 2 per-level bounds, bit 3 radius 8,
// bits 4–5 the bound (0.5, 1e-3, 1e-30, 1e308), bits 6–7 the permutation
// (identity, reversal, rotation, identity) of kernelPerms.
func FuzzKernel(f *testing.F) {
	seedVals := make([]byte, 0, 4*len(specials))
	for _, b := range specials {
		seedVals = binary.LittleEndian.AppendUint32(seedVals, b)
	}
	f.Add(seedVals, uint32(0x3b7a), uint8(0x0b))
	f.Add(seedVals, uint32(0x11f2), uint8(0x4e))
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40}, uint32(0x0ff1), uint8(0x09))
	f.Add([]byte{}, uint32(0x0003), uint8(0x30))
	// 4-D (extents 6, 4, 8, 3) with the rotation and fusion 5 of 8.
	f.Add(seedVals, uint32(5<<18|2<<14|7<<10|3<<6|5<<2|3), uint8(0x8b))
	// 3-D (extents 9, 5, 7) reversed, cubic, masked, fusion 3 of 4.
	f.Add(seedVals, uint32(3<<18|6<<10|4<<6|8<<2|2), uint8(0x43))
	f.Fuzz(func(t *testing.T, raw []byte, shape uint32, mode uint8) {
		n := 1 + int(shape%4)
		dims := make([]int, n)
		for i := range dims {
			dims[i] = 1 + int(shape>>(2+4*i))&15
		}
		perm := kernelPerms(n)[(mode>>6)%3]
		fusions := grid.Compositions(n)
		fus := fusions[int(shape>>18)%len(fusions)]
		if _, ok := grid.FusedLayout(dims, perm, fus); !ok {
			fus = grid.NoFusion(n)
		}
		vol := grid.Volume(dims)
		data := make([]float32, vol)
		mask := make([]bool, vol)
		for i := range data {
			var b [4]byte
			for k := range b {
				if len(raw) > 0 {
					b[k] = raw[(4*i+k)%len(raw)]
				}
			}
			bits := binary.LittleEndian.Uint32(b[:])
			data[i] = math.Float32frombits(bits)
			mask[i] = (bits*2654435761)>>30 != 0 // about a quarter masked
		}
		cfg := Config{
			EB:      []float64{0.5, 1e-3, 1e-30, 1e308}[mode>>4&3],
			Fitting: predict.Linear,
		}
		if mode&1 != 0 {
			cfg.Fitting = predict.Cubic
		}
		if mode&2 != 0 {
			cfg.Valid = mask
		}
		if mode&4 != 0 {
			cfg.LevelEBFactor = levelFactor
		}
		if mode&8 != 0 {
			cfg.Radius = 8
		}
		checkKernel(t, data, dims, perm, fus, cfg)
	})
}
