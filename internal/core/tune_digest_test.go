package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/dataset"
)

// reportDigest hashes everything an AutoTune report decides: the period,
// the sample size, every candidate's pipeline, sample size and ratio in
// report order, and the winner with its ratio. Durations are left out.
func reportDigest(rep *TuneReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "period=%d points=%d\n", rep.Period, rep.SamplePoints)
	for _, c := range rep.Candidates {
		fmt.Fprintf(h, "%s|%d|%x\n", c.Pipe.String(), c.SampleBytes, math.Float64bits(c.Ratio))
	}
	fmt.Fprintf(h, "best=%s|%x\n", rep.Best.String(), math.Float64bits(rep.BestRatio))
	if rep.Best.Template != nil {
		fmt.Fprintf(h, "template=%s\n", rep.Best.Template.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAutoTuneReportDigest pins the tuner's full report by SHA-256. The
// digests were recorded before the candidate loop shared predictions between
// classify twins and memoized candidate-invariant work, so they hold that
// sharing to the exact bytes and ranking of one compress per candidate.
// Classify twins sit 48 entries apart in EnumeratePipelines' order for a
// rank-3 input, so a MaxPipelines stride that divides 48 (37 gives stride 6
// on 192 and 3 on 96) keeps every twin pair, while one that does not (40
// gives stride 5 on 192, 20 gives stride 5 on 96) leaves every candidate
// unpaired; DisableClassify has no twins at all.
func TestAutoTuneReportDigest(t *testing.T) {
	cases := []struct {
		name string
		ds   func() *dataset.Dataset
		tc   TuneConfig
		want string
	}{
		{"ssh", smallSSH, TuneConfig{}, "4fc89704de1098fecf0aad911a6d7cca18846178476d3e248bcbc996ecbe7908"},
		{"hurricane", smallHurricane, TuneConfig{}, "c3360862a1d7058d521b3682ab6162656feee0095015baa5e5b5ce076c7e872b"},
		{"ssh-max37", smallSSH, TuneConfig{MaxPipelines: 37}, "521056541d67e57f449e785d8e87a2eec35f2cdf874cc7b4555e9db8dafe8c17"},
		{"hurricane-max37", smallHurricane, TuneConfig{MaxPipelines: 37}, "c26928f4e81d109e07c783f87fc2cfc21b87f1857d77d7358df21331f92b9b54"},
		{"ssh-max40", smallSSH, TuneConfig{MaxPipelines: 40}, "609c81ec375b5a191990857f45c233f687ad851e21704d078c0ea2bfdd136487"},
		{"hurricane-max20", smallHurricane, TuneConfig{MaxPipelines: 20}, "6edbc1b1ce1376b9a132f250bff8d01acb64b2741749552ac87df58382ae37ab"},
		{"ssh-noclassify", smallSSH, TuneConfig{DisableClassify: true}, "fac44bac191542d425fb446abf004c590371835c552dda1418d157e21a7ae306"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name != "hurricane-max37" {
				t.Skip("full tuner search in -short")
			}
			ds := tc.ds()
			_, rep, err := AutoTune(ds, ds.AbsErrorBound(1e-2), tc.tc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := reportDigest(rep); got != tc.want {
				t.Errorf("report digest %s, want %s (%d candidates, best %s)",
					got, tc.want, len(rep.Candidates), rep.Best)
			}
		})
	}
}

// BenchmarkAutoTune times the full tuner on a periodic masked field (192
// candidates) and an unmasked one (96 candidates), at rel 1e-2 and 1e-5
// respectively, as the tune-cold benchmark workload runs them.
func BenchmarkAutoTune(b *testing.B) {
	for _, bc := range []struct {
		name  string
		scale float64
		rel   float64
	}{{"SSH", 0.3, 1e-2}, {"Hurricane-T", 0.3, 1e-5}} {
		ds, err := datagen.ByName(bc.name, bc.scale)
		if err != nil {
			b.Fatal(err)
		}
		eb := ds.AbsErrorBound(bc.rel)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := AutoTune(ds, eb, TuneConfig{}, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
