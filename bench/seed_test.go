package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// digest hashes the bit patterns of every input and lists their shapes.
func digest(fields []field) (uint64, string) {
	h := fnv.New64a()
	var b [4]byte
	shapes := ""
	for _, f := range fields {
		shapes += fmt.Sprint(f.dims)
		for _, v := range f.data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			_, _ = h.Write(b[:]) // hash writes cannot fail
		}
	}
	return h.Sum64(), shapes
}

func setupDigest(t *testing.T, w workload, seed int64) (uint64, string) {
	t.Helper()
	inst, err := w.setup(&run{config: smoke(seed, false), samples: map[string][]float64{}})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	return digest(inst.inputs())
}

// TestSeedDeterminesInputs: one seed always generates bit-identical inputs;
// another seed generates different bits in the same shapes.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			h1, s1 := setupDigest(t, w, 1)
			h1b, s1b := setupDigest(t, w, 1)
			h2, s2 := setupDigest(t, w, 2)
			if h1 != h1b || s1 != s1b {
				t.Errorf("seed 1 generated different inputs: %x %s vs %x %s", h1, s1, h1b, s1b)
			}
			if h1 == h2 {
				t.Errorf("seeds 1 and 2 generated identical inputs")
			}
			if s1 != s2 {
				t.Errorf("seeds 1 and 2 generated different shapes: %s vs %s", s1, s2)
			}
		})
	}
}

// TestSeedDeterminesMetrics: the metrics that count rather than time repeat
// exactly for one seed.
func TestSeedDeterminesMetrics(t *testing.T) {
	for _, c := range []struct {
		workload string
		traced   bool
		metrics  []string
	}{
		{wSSH, false, []string{"ratio", "psnr_db"}},
		{wTune, true, []string{"estimate.ratio_err_pct", "tune.candidates"}},
	} {
		w, _ := findWorkload(c.workload)
		var first map[string]value
		for i := 0; i < 2; i++ {
			res, _, err := execute(w, smoke(1, c.traced))
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, name := range c.metrics {
				if a, b := first[name].Value, res.Metrics[name].Value; a != b || a == 0 {
					t.Errorf("%s %s: %v then %v", c.workload, name, a, b)
				}
			}
		}
	}
}
