package interp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cliz/internal/predict"
)

// smoothField builds a deterministic smooth field over dims.
func smoothField(dims []int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	ph := make([]float64, len(dims))
	for i := range ph {
		ph[i] = rng.Float64() * 2 * math.Pi
	}
	vol := 1
	for _, d := range dims {
		vol *= d
	}
	out := make([]float32, vol)
	coord := make([]int, len(dims))
	for idx := 0; idx < vol; idx++ {
		v := 0.0
		for i, c := range coord {
			v += math.Sin(2*math.Pi*float64(c)/float64(dims[i])*3 + ph[i])
		}
		out[idx] = float32(v * 10)
		for ax := len(dims) - 1; ax >= 0; ax-- {
			coord[ax]++
			if coord[ax] < dims[ax] {
				break
			}
			coord[ax] = 0
		}
	}
	return out
}

func roundTrip(t *testing.T, data []float32, dims []int, cfg Config) []float32 {
	t.Helper()
	res, err := Compress(data, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(res.Bins, res.Literals, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkBound(t *testing.T, orig, recon []float32, valid []bool, eb float64) {
	t.Helper()
	for i := range orig {
		if valid != nil && !valid[i] {
			continue
		}
		d := math.Abs(float64(orig[i]) - float64(recon[i]))
		if d > eb*(1+1e-9) {
			t.Fatalf("error bound violated at %d: |%g - %g| = %g > %g",
				i, orig[i], recon[i], d, eb)
		}
	}
}

func TestRoundTripErrorBound3D(t *testing.T) {
	dims := []int{7, 20, 33}
	data := smoothField(dims, 1)
	for _, eb := range []float64{1, 0.1, 0.001} {
		for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
			cfg := Config{EB: eb, Fitting: fit}
			got := roundTrip(t, data, dims, cfg)
			checkBound(t, data, got, nil, eb)
		}
	}
}

func TestRoundTrip1D2D(t *testing.T) {
	for _, dims := range [][]int{{1000}, {37, 53}, {1, 64}, {64, 1}} {
		data := smoothField(dims, 2)
		cfg := Config{EB: 0.01, Fitting: predict.Cubic}
		got := roundTrip(t, data, dims, cfg)
		checkBound(t, data, got, nil, 0.01)
	}
}

func TestReconMatchesDecode(t *testing.T) {
	// Compressor-side Recon must equal what the decompressor produces.
	dims := []int{16, 24}
	data := smoothField(dims, 3)
	cfg := Config{EB: 0.05, Fitting: predict.Cubic}
	res, err := Compress(data, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(res.Bins, res.Literals, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != res.Recon[i] {
			t.Fatalf("asymmetry at %d: compress recon %g, decode %g",
				i, res.Recon[i], got[i])
		}
	}
}

func TestBinsCountEqualsVolume(t *testing.T) {
	dims := []int{5, 6, 7}
	data := smoothField(dims, 4)
	res, err := Compress(data, dims, Config{EB: 0.1, Fitting: predict.Linear})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bins) != 5*6*7 {
		t.Fatalf("bins %d != volume", len(res.Bins))
	}
}

func TestMaskedRoundTrip(t *testing.T) {
	dims := []int{6, 16, 20}
	data := smoothField(dims, 5)
	vol := len(data)
	valid := make([]bool, vol)
	rng := rand.New(rand.NewSource(6))
	for i := range valid {
		valid[i] = rng.Float64() > 0.3
	}
	// Put fill values at masked points — they must not hurt valid points.
	for i, ok := range valid {
		if !ok {
			data[i] = 1e35
		}
	}
	cfg := Config{EB: 0.01, Fitting: predict.Cubic, Valid: valid}
	res, err := Compress(data, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The engine never writes a masked point (core writes the fill): the
	// decode leaves them as the buffer held them, the encode as the data.
	got := make([]float32, vol)
	for i := range got {
		got[i] = -1
	}
	if err := DecompressBuffers(res.Bins, res.Literals, dims, cfg, got); err != nil {
		t.Fatal(err)
	}
	checkBound(t, data, got, valid, 0.01)
	for i, ok := range valid {
		if !ok {
			if got[i] != -1 || res.Recon[i] != 1e35 {
				t.Fatalf("masked point %d written: decode %g, recon %g", i, got[i], res.Recon[i])
			}
			if res.Bins[i] != 0 {
				t.Fatalf("masked point %d produced bin %d", i, res.Bins[i])
			}
		}
	}
}

func TestMaskImprovesLiteralCount(t *testing.T) {
	// With fill values present, masking should dramatically reduce
	// unpredictable literals versus compressing the raw field.
	dims := []int{4, 32, 32}
	data := smoothField(dims, 7)
	valid := make([]bool, len(data))
	for i := range valid {
		valid[i] = (i/7)%3 != 0 // blocky invalid regions
		if !valid[i] {
			data[i] = 9.96921e36
		}
	}
	cfgMasked := Config{EB: 0.01, Fitting: predict.Cubic, Valid: valid}
	cfgRaw := Config{EB: 0.01, Fitting: predict.Cubic}
	rm, err := Compress(data, dims, cfgMasked)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Compress(data, dims, cfgRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Literals) >= len(rr.Literals) {
		t.Fatalf("mask did not reduce literals: %d vs %d",
			len(rm.Literals), len(rr.Literals))
	}
}

func TestLevelEBFactor(t *testing.T) {
	dims := []int{32, 32}
	data := smoothField(dims, 8)
	eb := 0.1
	cfg := Config{
		EB:      eb,
		Fitting: predict.Cubic,
		LevelEBFactor: func(level int) float64 {
			return 1 / math.Min(math.Pow(1.5, float64(level-1)), 4)
		},
	}
	got := roundTrip(t, data, dims, cfg)
	checkBound(t, data, got, nil, eb) // tighter levels keep the global bound
}

func TestSmoothDataCompressesToNarrowBins(t *testing.T) {
	dims := []int{64, 64}
	data := smoothField(dims, 9)
	res, err := Compress(data, dims, Config{EB: 0.01, Fitting: predict.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	// Most bins should be near the radius (small residuals).
	near := 0
	for _, b := range res.Bins {
		if b >= 32768-20 && b <= 32768+20 {
			near++
		}
	}
	if float64(near)/float64(len(res.Bins)) < 0.75 {
		t.Fatalf("only %d/%d bins near centre — prediction is weak", near, len(res.Bins))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Compress(nil, []int{0}, Config{EB: 1}); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := Compress(make([]float32, 4), []int{2, 2}, Config{EB: 0}); err == nil {
		t.Fatal("zero EB accepted")
	}
	if _, err := Compress(make([]float32, 3), []int{2, 2}, Config{EB: 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Compress(make([]float32, 4), []int{2, 2}, Config{EB: 1, Valid: make([]bool, 3)}); err == nil {
		t.Fatal("mask mismatch accepted")
	}
	if _, err := Decompress(make([]int32, 3), nil, []int{2, 2}, Config{EB: 1}); err == nil {
		t.Fatal("bad bins length accepted")
	}
	// Literal underrun: all-zero bins claim every point is a literal.
	if _, err := Decompress(make([]int32, 4), nil, []int{2, 2}, Config{EB: 1}); err == nil {
		t.Fatal("literal underrun not detected")
	}
}

func TestLevels(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for d, want := range cases {
		if got := Levels([]int{d}); got != want {
			t.Fatalf("Levels(%d) = %d want %d", d, got, want)
		}
	}
	if got := Levels([]int{3, 100, 7}); got != 7 {
		t.Fatalf("multi-dim Levels = %d", got)
	}
}

func TestQuickErrorBoundRandomShapes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 1
		dims := make([]int, n)
		for i := range dims {
			dims[i] = rng.Intn(20) + 1
		}
		vol := 1
		for _, d := range dims {
			vol *= d
		}
		data := make([]float32, vol)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 100)
		}
		eb := math.Pow(10, -rng.Float64()*3)
		fit := predict.Linear
		if rng.Intn(2) == 0 {
			fit = predict.Cubic
		}
		var valid []bool
		if rng.Intn(2) == 0 {
			valid = make([]bool, vol)
			for i := range valid {
				valid[i] = rng.Float64() > 0.25
			}
		}
		cfg := Config{EB: eb, Fitting: fit, Valid: valid}
		res, err := Compress(data, dims, cfg)
		if err != nil {
			return false
		}
		got, err := Decompress(res.Bins, res.Literals, dims, cfg)
		if err != nil {
			return false
		}
		for i := range data {
			if valid != nil && !valid[i] {
				continue
			}
			if math.Abs(float64(data[i])-float64(got[i])) > eb*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
