package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/predict"
	"cliz/internal/stats"
)

// smallSSH returns a small periodic, masked dataset for fast tests.
func smallSSH() *dataset.Dataset { return datagen.SSH(0.08) }

func smallHurricane() *dataset.Dataset { return datagen.HurricaneT(0.06) }

func checkRoundTrip(t *testing.T, ds *dataset.Dataset, eb float64, p Pipeline) ([]float32, int) {
	t.Helper()
	blob, err := Compress(ds, eb, p, Options{})
	if err != nil {
		t.Fatalf("compress [%s]: %v", p, err)
	}
	got, dims, err := Decompress(blob)
	if err != nil {
		t.Fatalf("decompress [%s]: %v", p, err)
	}
	if !dimsEqual(dims, ds.Dims) {
		t.Fatalf("dims %v want %v", dims, ds.Dims)
	}
	valid := ds.Validity()
	if p.UseMask && valid != nil {
		if got := stats.MaxAbsErr(ds.Data, got, valid); got > eb*(1+1e-9) {
			t.Fatalf("[%s] masked error bound violated: %g > %g", p, got, eb)
		}
		for i, ok := range valid {
			if !ok && got[i] != ds.FillValue {
				t.Fatalf("[%s] masked point %d = %g, want fill", p, i, got[i])
			}
		}
	} else {
		if gotErr := stats.MaxAbsErr(ds.Data, got, nil); gotErr > eb*(1+1e-9) {
			t.Fatalf("[%s] error bound violated: %g > %g", p, gotErr, eb)
		}
	}
	return got, len(blob)
}

func TestRoundTripDefaultPipeline(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-3)
	checkRoundTrip(t, ds, eb, Default(ds))
}

func TestRoundTripAllPipelineVariants3D(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	for _, period := range []int{0, 12} {
		for _, cls := range []bool{false, true} {
			for _, useMask := range []bool{false, true} {
				for _, fit := range []predict.Fitting{predict.Linear, predict.Cubic} {
					p := Default(ds)
					p.Period = period
					p.Classify = cls
					p.UseMask = useMask
					p.Fitting = fit
					checkRoundTrip(t, ds, eb, p)
				}
			}
		}
	}
}

func TestRoundTripPermutationsAndFusions(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	for _, perm := range grid.Permutations(3) {
		p := Default(ds)
		p.Perm = perm
		checkRoundTrip(t, ds, eb, p)
	}
	for _, fus := range grid.Compositions(3) {
		p := Default(ds)
		p.Fusion = fus
		checkRoundTrip(t, ds, eb, p)
	}
}

func TestRoundTrip4D(t *testing.T) {
	ds := datagen.SOILLIQ(0.15)
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	checkRoundTrip(t, ds, eb, p)
}

func TestRoundTrip2D(t *testing.T) {
	// A single horizontal slice.
	rng := rand.New(rand.NewSource(1))
	nLat, nLon := 40, 56
	data := make([]float32, nLat*nLon)
	for i := range data {
		data[i] = float32(math.Sin(float64(i%nLon)/9) + rng.NormFloat64()*0.01)
	}
	ds := &dataset.Dataset{Name: "slice", Data: data, Dims: []int{nLat, nLon}}
	checkRoundTrip(t, ds, 0.001, Default(ds))
}

func TestMaskImprovesRatioOnMaskedData(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	withMask := Default(ds)
	noMask := Default(ds)
	noMask.UseMask = false
	_, szMask := checkRoundTrip(t, ds, eb, withMask)
	_, szRaw := checkRoundTrip(t, ds, eb, noMask)
	if szMask >= szRaw {
		t.Fatalf("mask should shrink output: %d vs %d bytes", szMask, szRaw)
	}
}

func TestPeriodImprovesRatioOnPeriodicData(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	base := Default(ds)
	periodic := Default(ds)
	periodic.Period = 12
	_, szBase := checkRoundTrip(t, ds, eb, base)
	_, szPeriodic := checkRoundTrip(t, ds, eb, periodic)
	if szPeriodic >= szBase {
		t.Fatalf("periodic extraction should shrink output: %d vs %d bytes",
			szPeriodic, szBase)
	}
}

func TestPeriodicWithSeparatelyTunedTemplate(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	tp := Default(ds)
	tp.Fitting = predict.Linear
	p.Template = &tp
	checkRoundTrip(t, ds, eb, p)
}

func TestErrorBoundAcrossMagnitudes(t *testing.T) {
	ds := smallHurricane()
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		eb := ds.AbsErrorBound(rel)
		p := Default(ds)
		p.Classify = true
		checkRoundTrip(t, ds, eb, p)
	}
}

func TestCompressionIsDeterministic(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	a, err := Compress(ds, eb, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(ds, eb, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at byte %d", i)
		}
	}
}

func TestCompressWithReconMatchesDecode(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	blob, recon, err := CompressWithRecon(ds, eb, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != recon[i] {
			t.Fatalf("recon asymmetry at %d: %g vs %g", i, recon[i], got[i])
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	ds := smallHurricane()
	p := Default(ds)
	if _, err := Compress(ds, 0, p, Options{}); err == nil {
		t.Fatal("zero eb accepted")
	}
	bad := p
	bad.Perm = []int{0, 0, 1}
	if _, err := Compress(ds, 1, bad, Options{}); err == nil {
		t.Fatal("invalid perm accepted")
	}
	bad = p
	bad.Fusion = grid.Fusion{Groups: []int{5}}
	if _, err := Compress(ds, 1, bad, Options{}); err == nil {
		t.Fatal("invalid fusion accepted")
	}
	bad = p
	bad.Template = &p
	if _, err := Compress(ds, 1, bad, Options{}); err == nil {
		t.Fatal("template without period accepted")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Classify = true
	blob, err := Compress(ds, eb, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(nil); err == nil {
		t.Fatal("nil blob accepted")
	}
	if _, _, err := Decompress([]byte("BOGUSDATA")); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, cut := range []int{5, 20, len(blob) / 2, len(blob) - 3} {
		if _, _, err := Decompress(blob[:cut]); err == nil {
			t.Fatalf("truncated blob (%d bytes) accepted", cut)
		}
	}
	// Flipping the version byte must fail cleanly.
	bad := append([]byte(nil), blob...)
	bad[4] = 99
	if _, _, err := Decompress(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

// TestPeriodicTemplateShapeMismatch wraps a well-formed template of the
// right rank and period but smaller trailing extents in a periodic blob:
// compose would index past it, so the decoder must reject it as corrupt.
func TestPeriodicTemplateShapeMismatch(t *testing.T) {
	dims := []int{24, 10, 12}
	data, v := maskDigestInput(dims, false, 1e35)
	p := Pipeline{Perm: []int{0, 1, 2}, Fusion: grid.NoFusion(3), Fitting: predict.Cubic,
		UseMask: true, Period: 12}
	pr, err := predictGeneral(data, dims, v, 0.06, p, 1e35, Options{}, nil)
	if err != nil || pr.per == nil {
		t.Fatalf("no periodic prediction: %v", err)
	}
	small, _, err := compressGeneral(make([]float32, 12*5*12), []int{12, 5, 12}, validity{}, 0.06,
		Pipeline{Perm: []int{0, 1, 2}, Fusion: grid.NoFusion(3), Fitting: predict.Cubic}, 0, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	pr.per.tmplBlob = small
	blob, err := pr.encode(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("template of the wrong shape: error %v, want ErrCorrupt", err)
	}
}

func TestColumnIDs(t *testing.T) {
	dims := []int{2, 3, 4} // (t, lat, lon): 12 columns
	ident := columnIDs(dims, []int{0, 1, 2})
	// In natural order the column id cycles through 0..11 per time step.
	for i, c := range ident {
		if int(c) != i%12 {
			t.Fatalf("identity colOf[%d] = %d want %d", i, c, i%12)
		}
	}
	// Under permutation (2,0,1): transposed dims (4,2,3); the point at
	// transposed coord (lon, t, lat) has column lat*4+lon.
	perm := []int{2, 0, 1}
	cols := columnIDs(dims, perm)
	tdims := grid.PermuteDims(dims, perm)
	co := make([]int, 3)
	for i, c := range cols {
		grid.Coord(i, tdims, co)
		lon, lat := co[0], co[2]
		if int(c) != lat*4+lon {
			t.Fatalf("perm colOf[%d] = %d want %d", i, c, lat*4+lon)
		}
	}
}

func TestBuildTemplateMath(t *testing.T) {
	// Two full periods of a known signal: template must be the mean.
	dims := []int{4, 1, 2}
	data := []float32{
		1, 10, // t0
		2, 20, // t1
		3, 30, // t2 (phase 0 again)
		4, 40, // t3
	}
	tmpl, tmplDims, _ := buildTemplate(data, dims, nil, 2, 0)
	if !dimsEqual(tmplDims, []int{2, 1, 2}) {
		t.Fatalf("template dims %v", tmplDims)
	}
	want := []float32{2, 20, 3, 30}
	for i := range want {
		if tmpl[i] != want[i] {
			t.Fatalf("tmpl[%d] = %g want %g", i, tmpl[i], want[i])
		}
	}
	res := subtractTemplate(data, tmpl, dims, 2, nil, 0)
	addTemplate(res, tmpl, dims, 2)
	for i := range data {
		if res[i] != data[i] {
			t.Fatalf("add/subtract not inverse at %d", i)
		}
	}
}

func TestBuildTemplateMasked(t *testing.T) {
	dims := []int{2, 1, 2}
	valid, err := mask.New(1, 2, []int32{1, 0}).Broadcast(dims)
	if err != nil {
		t.Fatal(err)
	}
	data := []float32{5, 999, 7, 999}
	tmpl, _, tmplValid := buildTemplate(data, dims, valid, 2, -1)
	if tmpl[0] != 5 || tmpl[2] != 7 {
		t.Fatalf("valid template wrong: %v", tmpl)
	}
	if tmpl[1] != -1 || tmpl[3] != -1 {
		t.Fatalf("masked template not filled: %v", tmpl)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if tmplValid[i] != want[i] {
			t.Fatalf("template validity %v", tmplValid)
		}
	}
}

// TestStepValidityMatchesFullBitmap holds the periodic stages, fed one
// shared time step of a horizontal mask, to the same stages fed the full
// broadcast bitmap, bit for bit, on a 4-D grid (an inner height axis).
func TestStepValidityMatchesFullBitmap(t *testing.T) {
	dims := []int{36, 3, 5, 6}
	rng := rand.New(rand.NewSource(9))
	regions := make([]int32, 5*6)
	for i := range regions {
		regions[i] = int32(rng.Intn(3))
	}
	hm := mask.New(5, 6, regions)
	full, err := hm.Broadcast(dims)
	if err != nil {
		t.Fatal(err)
	}
	step, err := validity{hm: hm}.stepValidity(dims)
	if err != nil {
		t.Fatal(err)
	}
	if len(step) != 3*5*6 {
		t.Fatalf("step validity of %d points, want one step (%d)", len(step), 3*5*6)
	}
	data := make([]float32, grid.Volume(dims))
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 100)
	}
	const fill float32 = -7
	tf, _, tvFull := buildTemplate(data, dims, full, 12, fill)
	ts, _, tvStep := buildTemplate(data, dims, step, 12, fill)
	if !bitsEqual(tf, ts) || tvStep != nil || len(tvFull) != len(tf) {
		t.Fatal("buildTemplate: a shared step differs from the full bitmap")
	}
	if !bitsEqual(subtractTemplate(data, tf, dims, 12, full, fill), subtractTemplate(data, tf, dims, 12, step, fill)) {
		t.Fatal("subtractTemplate: a shared step differs from the full bitmap")
	}
	if a, b := compositionSlack(data, tf, dims, 12, full), compositionSlack(data, tf, dims, 12, step); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("compositionSlack: %g with the full bitmap, %g with a shared step", a, b)
	}
}

func TestBuildTemplateInhomogeneousValidity(t *testing.T) {
	// Validity varying along time (as in concatenated tuner samples): the
	// phase mean must only use valid contributions.
	dims := []int{4, 1, 1}
	data := []float32{10, 99, 30, 20}
	valid := []bool{true, false, true, true}
	tmpl, _, tmplValid := buildTemplate(data, dims, valid, 2, -1)
	if tmpl[0] != 20 { // mean(10, 30)
		t.Fatalf("phase 0 mean = %g want 20", tmpl[0])
	}
	if tmpl[1] != 20 { // only t=3 contributes
		t.Fatalf("phase 1 mean = %g want 20", tmpl[1])
	}
	if !tmplValid[0] || !tmplValid[1] {
		t.Fatalf("validity %v", tmplValid)
	}
}

func TestDetectPeriodOnSSH(t *testing.T) {
	ds := smallSSH()
	if p := DetectPeriod(ds, 10); p != 12 {
		t.Fatalf("period = %d want 12", p)
	}
}

func TestDetectPeriodOnAperiodic(t *testing.T) {
	ds := smallHurricane()
	if p := DetectPeriod(ds, 10); p != 0 {
		t.Fatalf("aperiodic dataset got period %d", p)
	}
}

func TestPipelineString(t *testing.T) {
	p := Pipeline{
		Perm:     []int{2, 0, 1},
		Fusion:   grid.Fusion{Groups: []int{1, 2}},
		Fitting:  predict.Linear,
		Classify: true,
		UseMask:  true,
		Period:   12,
	}
	want := "period=12 mask classify perm=201 fuse=1&2 fit=Linear"
	if got := p.String(); got != want {
		t.Fatalf("String = %q want %q", got, want)
	}
}

func TestEnumeratePipelinesCounts(t *testing.T) {
	// Paper §VII-C2: SSH (periodic, 3D) has 192 pipelines; CESM-T has 96.
	tc := TuneConfig{MaxPipelines: 10000}
	if got := len(EnumeratePipelines(3, 12, true, tc)); got != 192 {
		t.Fatalf("periodic 3D pipelines = %d want 192", got)
	}
	if got := len(EnumeratePipelines(3, 0, false, tc)); got != 96 {
		t.Fatalf("aperiodic 3D pipelines = %d want 96", got)
	}
	// The cap must engage deterministically.
	capped := EnumeratePipelines(3, 12, true, TuneConfig{MaxPipelines: 50})
	if len(capped) > 50 {
		t.Fatalf("cap exceeded: %d", len(capped))
	}
}

func TestAutoTuneSSH(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	best, report, err := AutoTune(ds, eb, TuneConfig{SamplingRate: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Period != 12 {
		t.Fatalf("tuner period = %d want 12", report.Period)
	}
	if best.Period != 12 {
		t.Fatalf("best pipeline should use periodicity, got %s", best)
	}
	if len(report.Candidates) < 96 {
		t.Fatalf("only %d candidates tested", len(report.Candidates))
	}
	// The tuned pipeline must round-trip and beat the default.
	_, szBest := checkRoundTrip(t, ds, eb, best)
	_, szDefault := checkRoundTrip(t, ds, eb, Default(ds))
	if szBest > szDefault {
		t.Fatalf("tuned pipeline worse than default: %d vs %d", szBest, szDefault)
	}
}

func TestAutoTuneRespectsDisables(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	_, report, err := AutoTune(ds, eb, TuneConfig{
		SamplingRate: 0.02, DisablePeriod: true, DisableClassify: true,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Period != 0 {
		t.Fatal("period detected despite DisablePeriod")
	}
	for _, c := range report.Candidates {
		if c.Pipe.Period != 0 || c.Pipe.Classify {
			t.Fatalf("disabled stage appeared in candidate %s", c.Pipe)
		}
	}
}

func TestAutoTuneDeterminism(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	a, _, err := AutoTune(ds, eb, TuneConfig{SamplingRate: 0.02}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := AutoTune(ds, eb, TuneConfig{SamplingRate: 0.02}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("tuner not deterministic: %s vs %s", a, b)
	}
}

func TestSampleConcatShape(t *testing.T) {
	ds := smallSSH()
	smp := sampleConcat(ds, ds.Validity(), 0.01, 12)
	total := grid.Volume(smp.dims)
	if total >= ds.Points()/2 {
		t.Fatalf("sample too large: %d of %d", total, ds.Points())
	}
	if total != len(smp.data) {
		t.Fatalf("dims %v inconsistent with data length %d", smp.dims, len(smp.data))
	}
	// Periodic samples must keep the time axis a multiple of the period
	// (phase alignment) and stack blocks along a spatial axis so each time
	// series stays coherent.
	if smp.dims[0]%12 != 0 {
		t.Fatalf("sample time extent %d not a multiple of the period", smp.dims[0])
	}
	if smp.dims[0] < 24 {
		t.Fatalf("sample time extent %d shorter than 2 periods", smp.dims[0])
	}
	if smp.dims[1]%8 != 0 {
		t.Fatalf("expected 8 blocks stacked along lat, dims %v", smp.dims)
	}
}

func TestSampleConcatMaskMatchesData(t *testing.T) {
	ds := smallSSH()
	smp := sampleConcat(ds, ds.Validity(), 0.05, 0)
	if smp.valid == nil {
		t.Fatal("masked dataset produced unmasked sample")
	}
	for i, ok := range smp.valid {
		isFill := smp.data[i] == ds.FillValue
		if ok && isFill {
			t.Fatal("sample says valid but data holds fill")
		}
		if !ok && !isFill {
			t.Fatal("sample says invalid but data holds a value")
		}
	}
}

func TestSampleConcatFullRate(t *testing.T) {
	ds := smallHurricane()
	smp := sampleConcat(ds, ds.Validity(), 1.0, 0)
	if grid.Volume(smp.dims) != ds.Points() {
		t.Fatal("rate 1 should use the whole dataset")
	}
}

func TestLorenzoFittingRoundTrip(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Fitting = predict.Lorenzo
	checkRoundTrip(t, ds, eb, p)
	// With classification and a mask too.
	ssh := smallSSH()
	p2 := Default(ssh)
	p2.Fitting = predict.Lorenzo
	p2.Classify = true
	checkRoundTrip(t, ssh, ssh.AbsErrorBound(1e-2), p2)
}

func TestEnumerateWithLorenzo(t *testing.T) {
	tc := TuneConfig{MaxPipelines: 10000, EnableLorenzo: true}
	if got := len(EnumeratePipelines(3, 0, false, tc)); got != 144 {
		t.Fatalf("lorenzo-extended 3D pipelines = %d want 144", got)
	}
}

// dimsEqual reports whether two dims lists are equal.
var dimsEqual = slices.Equal[[]int]
