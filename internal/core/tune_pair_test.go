package core

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"cliz/internal/trace"
)

// TestClassifyPairMatchesDirect holds the tuner's shared prediction to the
// plain compress path: for every candidate pipeline, on a periodic masked
// sample and on an unmasked one, the two blobs encoded from one prediction
// (through a memo shared by all candidates, as AutoTune runs them) equal
// the blobs compressGeneral writes for each classification setting alone,
// and the tuner's pair run sizes them the same with either arm first.
func TestClassifyPairMatchesDirect(t *testing.T) {
	ssh := smallSSH()
	period := DetectPeriod(ssh, 0)
	if period == 0 {
		t.Fatal("no period detected on the periodic fixture")
	}
	hur := smallHurricane()
	for _, tc := range []struct {
		name   string
		smp    sample
		cands  []Pipeline
		fill   float32
		eb     float64
		masked bool
	}{
		{"ssh", sampleConcat(ssh, ssh.Validity(), 0.01, period), EnumeratePipelines(3, period, true, TuneConfig{}),
			ssh.FillValue, ssh.AbsErrorBound(1e-2), true},
		{"hurricane", sampleConcat(hur, hur.Validity(), 0.01, 0), EnumeratePipelines(3, 0, false, TuneConfig{}),
			hur.FillValue, hur.AbsErrorBound(1e-2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.masked && tc.smp.valid == nil {
				t.Fatal("masked fixture sampled without validity")
			}
			var v validity
			if tc.masked {
				v.pts = tc.smp.valid
			}
			memo := newTuneMemo()
			tu := &tuner{eb: tc.eb, fill: tc.fill, memo: memo}
			pairs := 0
			for _, p := range tc.cands {
				if p.Classify {
					continue
				}
				pr, err := predictGeneral(tc.smp.data, tc.smp.dims, v, tc.eb, p, tc.fill, Options{}, memo)
				if err != nil {
					t.Fatalf("[%s] predict: %v", p, err)
				}
				off, err := pr.encode(false)
				if err != nil {
					t.Fatal(err)
				}
				on, err := pr.encode(true)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pr.encode(false); !errors.Is(err, errBinsShifted) {
					t.Fatalf("[%s] encode after a classified encode: %v, want errBinsShifted", p, err)
				}
				q := p
				q.Classify = true
				// The refine stage may reach the classified arm first.
				rev, err := tu.compress(tc.smp, q, p)
				if err != nil {
					t.Fatal(err)
				}
				if rev[0].err != nil || rev[0].size != len(on) || rev[1].err != nil || rev[1].size != len(off) {
					t.Fatalf("[%s] pair run classified arm first: %+v, want sizes %d and %d",
						p, rev, len(on), len(off))
				}
				for _, arm := range []struct {
					p    Pipeline
					blob []byte
				}{{p, off}, {q, on}} {
					direct, _, err := compressGeneral(tc.smp.data, tc.smp.dims, v, tc.eb, arm.p, tc.fill, Options{}, false)
					if err != nil {
						t.Fatalf("[%s] direct: %v", arm.p, err)
					}
					if !bytes.Equal(arm.blob, direct) {
						t.Fatalf("[%s] paired blob (%d B) differs from the direct one (%d B)",
							arm.p, len(arm.blob), len(direct))
					}
				}
				pairs++
			}
			if want := len(tc.cands) / 2; pairs != want {
				t.Fatalf("%d pairs checked, want %d", pairs, want)
			}
			if memo.hits == 0 {
				t.Fatal("the memo was never hit")
			}
		})
	}
}

// TestTuneInterruptInsidePair cancels a tune at every poll up to and
// including the one between the two encodes of its first classify pair. The
// tune must stop at that very poll with ErrInterrupted, not record the
// half-encoded pair and go on to hand back a pipeline.
func TestTuneInterruptInsidePair(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	cands := EnumeratePipelines(len(ds.Dims), 0, false, TuneConfig{})
	j := classifyTwins(cands)[0]
	if j < 0 {
		t.Fatal("first candidate has no classify twin")
	}
	// Count the polls of the first pair alone; the last is the one between
	// its encodes, the only one a single arm lacks. AutoTune's search polls
	// once before the pair.
	polls := 0
	count := &tuner{eb: eb, fill: ds.FillValue, memo: newTuneMemo(),
		opt: Options{Interrupt: func() error { polls++; return nil }}}
	smp := sampleConcat(ds, ds.Validity(), 0.01, 0)
	if _, err := count.compress(smp, cands[0]); err != nil {
		t.Fatal(err)
	}
	single := polls
	polls = 0
	if _, err := count.compress(smp, cands[0], cands[j]); err != nil {
		t.Fatal(err)
	}
	if polls != single+1 {
		t.Fatalf("a pair polled %d times and a single arm %d: no poll between the encodes", polls, single)
	}
	for k := 1; k <= 1+polls; k++ {
		n := 0
		opt := Options{Interrupt: func() error {
			n++
			if n >= k {
				return context.Canceled
			}
			return nil
		}}
		best, rep, err := AutoTune(ds, eb, TuneConfig{}, opt)
		if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at poll %d: got %v (%s, report %v), want ErrInterrupted", k, err, best, rep != nil)
		}
		if n != k {
			t.Fatalf("cancel at poll %d: tune polled %d times before returning", k, n)
		}
	}
}

// TestTuneStageCounters checks the search stage's work counters: each
// classify pair predicts once and encodes twice, a pipeline without a twin
// predicts and encodes once, and every classified encode after the first
// per permutation finds its column ids in the memo.
func TestTuneStageCounters(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	for _, tc := range []struct {
		name                    string
		tc                      TuneConfig
		predicts, encodes, hits float64
	}{
		{"pairs", TuneConfig{}, 48, 96, 48 - 6},
		{"no-classify", TuneConfig{DisableClassify: true}, 48, 48, 0},
		{"split-pairs", TuneConfig{MaxPipelines: 20}, 20, 20, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rec trace.Recorder
			if _, _, err := AutoTune(ds, eb, tc.tc, Options{Trace: &rec}); err != nil {
				t.Fatal(err)
			}
			got := map[string]map[string]float64{}
			for _, s := range rec.Stages() {
				kv := map[string]float64{}
				for _, e := range s.Extra {
					kv[e.Key] = e.Value
				}
				got[s.Name] = kv
			}
			search := got["tune/search"]
			if search["predict_runs"] != tc.predicts || search["encodes"] != tc.encodes {
				t.Fatalf("search counters %v, want %v predictions and %v encodes",
					search, tc.predicts, tc.encodes)
			}
			if tc.hits >= 0 && search["memo_hits"] != tc.hits {
				t.Fatalf("search memo hits %v, want %v", search["memo_hits"], tc.hits)
			}
			refine := got["tune/refine"]
			for _, key := range []string{"predict_runs", "encodes", "memo_hits"} {
				if _, ok := refine[key]; !ok {
					t.Fatalf("refine stage lacks %s: %v", key, refine)
				}
			}
			if refine["encodes"] < refine["predict_runs"] {
				t.Fatalf("refine encoded less than it predicted: %v", refine)
			}
		})
	}
}

// TestAlphaLadderCompressesTemplateOnce: the α ladder reruns the periodic
// winner once per LevelAlphas entry, and the tuned template pipeline does
// not carry α, so the ladder compresses the template once and finds it in
// the memo on every later run.
func TestAlphaLadderCompressesTemplateOnce(t *testing.T) {
	ds := smallSSH()
	var rec trace.Recorder
	best, _, err := AutoTune(ds, ds.AbsErrorBound(1e-2), TuneConfig{}, Options{Trace: &rec})
	if err != nil {
		t.Fatal(err)
	}
	if best.Period == 0 || best.Template == nil {
		t.Fatalf("fixture tuned to %s, want a periodic winner with a tuned template", best)
	}
	for _, s := range rec.Stages() {
		if s.Name != "tune/alpha" {
			continue
		}
		kv := map[string]float64{}
		for _, e := range s.Extra {
			kv[e.Key] = e.Value
		}
		if kv["predict_runs"] != float64(len(LevelAlphas)) || kv["template_runs"] != 1 {
			t.Fatalf("alpha stage counters %v, want %d predictions and 1 template compression",
				kv, len(LevelAlphas))
		}
		return
	}
	t.Fatal("no tune/alpha stage recorded")
}

// TestScratchOutlivesNoResult predicts periodic candidates through one memo,
// whose scratch pair every unit reuses. A prediction's reconstruction must
// match the direct compress path's while it is current, and the template
// reconstruction it holds must survive the next candidates unchanged.
func TestScratchOutlivesNoResult(t *testing.T) {
	ds := smallSSH()
	period := DetectPeriod(ds, 0)
	smp := sampleConcat(ds, ds.Validity(), 0.01, period)
	eb := ds.AbsErrorBound(1e-2)
	v := validity{pts: smp.valid}
	memo := newTuneMemo()
	var held [][]float32 // template reconstructions, with copies
	var want [][]float32
	for _, p := range EnumeratePipelines(3, period, true, TuneConfig{DisableClassify: true}) {
		if p.Period == 0 || len(held) == 12 {
			continue
		}
		pr, err := predictGeneral(smp.data, smp.dims, v, eb, p, ds.FillValue, Options{}, memo)
		if err != nil {
			t.Fatalf("[%s] %v", p, err)
		}
		got, err := pr.recon()
		if err != nil {
			t.Fatal(err)
		}
		_, direct, err := compressGeneral(smp.data, smp.dims, v, eb, p, ds.FillValue, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, direct) {
			t.Fatalf("[%s] reconstruction differs from the direct path", p)
		}
		if pr.per != nil {
			held = append(held, pr.per.tmplRecon)
			want = append(want, slices.Clone(pr.per.tmplRecon))
		}
	}
	if len(held) == 0 {
		t.Fatal("no periodic prediction")
	}
	for i := range held {
		if !slices.Equal(held[i], want[i]) {
			t.Fatalf("template reconstruction %d changed under later candidates", i)
		}
	}
}
