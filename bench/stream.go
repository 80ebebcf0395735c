package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"cliz/internal/core"
	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/stream"
)

// streamRel is the stream workload's bound, relative to the value range of
// each stream's first frame.
const streamRel = 1e-3

// seeksPerStream is how many seeded Seek+ReadFrame calls follow each
// stream's sequential read.
const seeksPerStream = 8

// streamInput is one temporal scenario: its frames, the writer
// configuration and the reference every decoded frame is checked against.
type streamInput struct {
	cfg    stream.Config
	frames [][]float32
	refs   []*reference
}

// streamBench is a closed loop of passes. A pass appends every frame of
// both scenarios to fresh streams, closes them, reads every frame back and
// then seeks to seeded frames, checking each decoded frame.
type streamBench struct {
	streams    []*streamInput
	seeks      []int
	frameBytes float64
}

func setupStream(r *run) (instance, error) {
	nLat, nLon, frames := 384, 320, 48
	if r.small {
		nLat, nLon, frames = 48, 40, 20
	}
	s := &streamBench{frameBytes: float64(nLat * nLon * 4)}
	// The advecting masked ocean field (temporal deltas win big) and the
	// noisier drifting field (the stress case) at full resolution.
	for _, spec := range datagen.TemporalScenario(1) {
		spec.NLat, spec.NLon, spec.Frames = nLat, nLon, frames
		spec.Seed ^= r.seed
		ts, err := datagen.Temporal(spec)
		if err != nil {
			return nil, err
		}
		in := &streamInput{frames: ts.Frames}
		for t, frame := range ts.Frames {
			ds := &dataset.Dataset{Name: ts.Name, Data: frame, Dims: ts.Dims, Mask: ts.Mask, FillValue: ts.Fill}
			if t == 0 {
				in.cfg = stream.Config{Name: ts.Name, Dims: ts.Dims, Mask: ts.Mask, Fill: ts.Fill,
					EB: ds.AbsErrorBound(streamRel), Opts: core.Options{Workers: 1}}
			}
			in.refs = append(in.refs, newReference(ds, in.cfg.EB))
		}
		s.streams = append(s.streams, in)
	}
	// The seed picks each seek's keyframe interval; the offsets into the
	// interval are fixed, so every seed replays the same number of frames.
	// Each seek lands in another interval than the one before it: a later
	// frame of the same interval would continue from the held frame instead
	// of replaying from the keyframe, and the read time would follow the seed.
	rng := seedRNG(r.seed, 2)
	intervals := frames / stream.DefaultKeyframeInterval
	k := 0
	for i := 0; i < seeksPerStream; i++ {
		if i == 0 || intervals < 2 {
			k = rng.Intn(intervals)
		} else {
			k = (k + 1 + rng.Intn(intervals-1)) % intervals
		}
		s.seeks = append(s.seeks, k*stream.DefaultKeyframeInterval+1+2*i)
	}
	return s, nil
}

func (s *streamBench) inputs() []field {
	var out []field
	for _, in := range s.streams {
		for _, frame := range in.frames {
			out = append(out, field{in.cfg.Dims, frame})
		}
	}
	return out
}

func (s *streamBench) warm(r *run)    { s.pass(r, false) }
func (s *streamBench) measure(r *run) { closedLoop(r, func(traced bool) { s.pass(r, traced) }) }
func (s *streamBench) close()         {}

func (s *streamBench) pass(r *run, traced bool) {
	p := &streamPass{r: r, log: r.log(traced), seeks: s.seeks, frameBytes: s.frameBytes}
	p.log.beginOp()
	a0 := heapAllocs()
	for si, in := range s.streams {
		blob, ok := p.write(si, in)
		if !ok || !p.read(si, in, blob) {
			return
		}
	}
	a1 := heapAllocs()
	r.add("read_bytes", float64(p.frames)*s.frameBytes)
	r.add(opKey(traced), (p.appendT + p.readT).Seconds())
	r.add("ratio", s.frameBytes*float64(s.frames())/float64(p.written))
	r.add("psnr_db", mean(p.psnr))
	r.add("intra", p.intra)
	if !traced {
		r.add("alloc", (a1-a0)/float64(p.points))
	}
}

// streamPass is one pass in progress: where it records and what it has
// summed so far.
type streamPass struct {
	r          *run
	log        *spanLog
	seeks      []int
	frameBytes float64

	appendT, readT time.Duration
	written        int // stream bytes
	points         int // points appended and read
	frames         int // frames read
	psnr           []float64
	intra          float64
}

// write appends every frame of in, stream si, to a fresh stream and
// closes it.
func (p *streamPass) write(si int, in *streamInput) ([]byte, bool) {
	cfg := in.cfg
	cfg.Opts.Trace = p.log.collector()
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, cfg)
	if err != nil {
		p.r.check("stream writer", err)
		return nil, false
	}
	for t, frame := range in.frames {
		sp := p.log.begin("append")
		t0 := time.Now()
		info, err := w.Append(frame)
		d := time.Since(t0)
		p.log.end(sp, int64(p.frameBytes), int64(info.RecordBytes))
		if err != nil {
			p.r.check("append", err)
			return nil, false
		}
		p.appendT += d
		p.r.add(stepKey("append", si, t), d.Seconds())
		p.points += len(frame)
		if info.Kind == stream.KindDelta {
			p.r.add("delta_append_ms", 1e3*d.Seconds())
			p.r.add("delta_bytes", float64(info.RecordBytes))
		} else {
			p.r.add("key_append_ms", 1e3*d.Seconds())
			p.r.add("key_bytes", float64(info.RecordBytes))
		}
		if info.Kind == stream.KindIntra {
			p.intra++
		}
	}
	t0 := time.Now()
	err = w.Close()
	d := time.Since(t0)
	if err != nil {
		p.r.check("close", err)
		return nil, false
	}
	p.appendT += d
	p.r.add(stepKey("close", si, 0), d.Seconds())
	p.written += buf.Len()
	return buf.Bytes(), true
}

// read decodes every frame of the stream in order and then the seeded
// frames by seeking, checking each against its reference.
func (p *streamPass) read(si int, in *streamInput, blob []byte) bool {
	t0 := time.Now()
	rd, err := stream.Parse(blob, core.DecompressOptions{Workers: 1, Trace: p.log.collector()})
	d := time.Since(t0)
	if err != nil {
		p.r.check("parse", err)
		return false
	}
	p.readT += d
	p.r.add(stepKey("parse", si, 0), d.Seconds())
	for t := range in.frames {
		p.readFrame(rd, in, si, t, false)
	}
	for _, t := range p.seeks {
		p.readFrame(rd, in, si, t, true)
	}
	return true
}

func (p *streamPass) readFrame(rd *stream.Reader, in *streamInput, si, t int, seek bool) {
	sp := p.log.begin("read")
	t0 := time.Now()
	var recon []float32
	var err error
	if seek {
		err = rd.Seek(t)
	}
	if err == nil {
		recon, err = rd.ReadFrame()
	}
	d := time.Since(t0)
	p.log.end(sp, 0, int64(len(recon)*4))
	var sse float64
	if err == nil {
		sse, err = in.refs[t].check(recon)
	}
	p.r.check("read frame", err)
	if err != nil {
		return
	}
	p.readT += d
	p.frames++
	p.points += len(recon)
	if seek {
		p.r.add(stepKey("seek", si, t), d.Seconds())
		p.r.add("seek_read_ms", 1e3*d.Seconds())
		return
	}
	p.r.add(stepKey("read", si, t), d.Seconds())
	p.r.add("read_ms", 1e3*d.Seconds())
	p.psnr = append(p.psnr, in.refs[t].psnr(sse))
}

// frames is the number of frames one pass appends.
func (s *streamBench) frames() int {
	n := 0
	for _, in := range s.streams {
		n += len(in.frames)
	}
	return n
}

func (s *streamBench) metrics(r *run) (map[string]float64, error) {
	m := r.samples
	if len(m["ratio"]) == 0 {
		return nil, errNoSamples
	}
	if r.traced {
		out := layersOf(r.spans).codecMetrics()
		out["trace.overhead_pct"] = overheadPct(r)
		out["stream.key_append_ms"] = median(m["key_append_ms"])
		out["stream.delta_append_ms"] = median(m["delta_append_ms"])
		out["stream.key_bytes_per_frame"] = median(m["key_bytes"])
		out["stream.delta_bytes_per_frame"] = median(m["delta_bytes"])
		out["stream.intra_frames"] = median(m["intra"])
		out["stream.read_ms_per_frame"] = median(m["read_ms"])
		out["stream.seek_read_ms"] = median(m["seek_read_ms"])
		return out, nil
	}
	return map[string]float64{
		"compress_mb_s":   s.frameBytes * float64(s.frames()) / 1e6 / fastestSteps(m, "append", "close"),
		"decompress_mb_s": median(m["read_bytes"]) / 1e6 / fastestSteps(m, "parse", "read", "seek"),
		"ratio":           median(m["ratio"]),
		"psnr_db":         median(m["psnr_db"]),
		"alloc_b_per_pt":  median(m["alloc"]),
	}, nil
}

// stepKey names the samples of one step of a pass: the call named step on
// stream si about frame t.
func stepKey(step string, si, t int) string {
	return fmt.Sprintf("step.%s.%d.%d", step, si, t)
}

// fastestSteps is the time of a pass in which every step of the named
// kinds ran at its fastest. A neighbour slows a ~1 s pass somewhere in most
// runs; a single frame's call, sampled once per pass across the whole
// phase, finds a quiet moment far more often.
func fastestSteps(samples map[string][]float64, steps ...string) float64 {
	sum := 0.0
	for key, xs := range samples {
		for _, step := range steps {
			if strings.HasPrefix(key, "step."+step+".") {
				sum += best(xs)
			}
		}
	}
	return sum
}
