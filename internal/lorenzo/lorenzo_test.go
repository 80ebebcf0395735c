package lorenzo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smoothField(dims []int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	vol := 1
	for _, d := range dims {
		vol *= d
	}
	out := make([]float32, vol)
	coord := make([]int, len(dims))
	for i := 0; i < vol; i++ {
		v := 0.0
		for d, c := range coord {
			v += math.Sin(2 * math.Pi * float64(c) / float64(dims[d]) * 2)
		}
		out[i] = float32(v*10 + 0.01*rng.NormFloat64())
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

func TestRoundTripErrorBound(t *testing.T) {
	for _, dims := range [][]int{{200}, {31, 41}, {7, 19, 23}, {3, 4, 5, 6}} {
		data := smoothField(dims, 1)
		for _, eb := range []float64{0.5, 0.01} {
			cfg := Config{EB: eb}
			res, err := Compress(data, dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decompress(res.Bins, res.Literals, dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range data {
				if d := math.Abs(float64(data[i]) - float64(got[i])); d > eb*(1+1e-9) {
					t.Fatalf("%v eb=%g: error %g at %d", dims, eb, d, i)
				}
			}
		}
	}
}

// TestExactOnAffineData: the first-order Lorenzo predictor reproduces
// multilinear data exactly in the interior; only the first row/column
// (where missing neighbours contribute 0, as in classic SZ) miss.
func TestExactOnAffineData(t *testing.T) {
	dims := []int{16, 24}
	data := make([]float32, 16*24)
	for i := 0; i < 16; i++ {
		for j := 0; j < 24; j++ {
			data[i*24+j] = float32(3*i + 5*j + 7)
		}
	}
	res, err := Compress(data, dims, Config{EB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	boundaryMiss := 0
	for idx, b := range res.Bins {
		if b == 32768 {
			continue
		}
		i, j := idx/24, idx%24
		if i == 0 || j == 0 {
			boundaryMiss++
			continue
		}
		t.Fatalf("interior point (%d,%d) off-centre: bin %d", i, j, b)
	}
	if boundaryMiss > 16+24-1 {
		t.Fatalf("too many boundary misses: %d", boundaryMiss)
	}
}

func TestMaskedRoundTrip(t *testing.T) {
	dims := []int{12, 18}
	data := smoothField(dims, 2)
	valid := make([]bool, len(data))
	rng := rand.New(rand.NewSource(3))
	for i := range valid {
		valid[i] = rng.Float64() > 0.3
		if !valid[i] {
			data[i] = 1e35
		}
	}
	cfg := Config{EB: 0.05, Valid: valid}
	res, err := Compress(data, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The engine never writes a masked point (core writes the fill): the
	// decode leaves them as the buffer held them, the encode as the data.
	got := make([]float32, len(data))
	for i := range got {
		got[i] = -9
	}
	if err := DecompressBuffers(res.Bins, res.Literals, dims, cfg, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !valid[i] {
			if got[i] != -9 || res.Recon[i] != 1e35 {
				t.Fatalf("masked point %d written: decode %g, recon %g", i, got[i], res.Recon[i])
			}
			continue
		}
		if d := math.Abs(float64(data[i]) - float64(got[i])); d > 0.05*(1+1e-9) {
			t.Fatalf("error %g at %d", d, i)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := Compress(nil, []int{0}, Config{EB: 1}); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := Compress(make([]float32, 4), []int{2, 2}, Config{EB: 0}); err == nil {
		t.Fatal("zero eb accepted")
	}
	if _, err := Compress(make([]float32, 3), []int{2, 2}, Config{EB: 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Decompress(make([]int32, 4), nil, []int{2, 2}, Config{EB: 1}); err == nil {
		t.Fatal("literal underrun accepted")
	}
}

func TestQuickErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 1
		dims := make([]int, n)
		for i := range dims {
			dims[i] = rng.Intn(15) + 1
		}
		vol := 1
		for _, d := range dims {
			vol *= d
		}
		data := make([]float32, vol)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 50)
		}
		eb := math.Pow(10, -rng.Float64()*3)
		cfg := Config{EB: eb}
		res, err := Compress(data, dims, cfg)
		if err != nil {
			return false
		}
		got, err := Decompress(res.Bins, res.Literals, dims, cfg)
		if err != nil {
			return false
		}
		for i := range data {
			if math.Abs(float64(data[i])-float64(got[i])) > eb*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
