package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cliz/internal/core"
	"cliz/internal/datagen"
	"cliz/internal/dataset"
	"cliz/internal/service"
)

const (
	// clizdRate is the Poisson arrival rate. On two cores it keeps the
	// server about half busy, so requests queue now and then but the
	// backlog never grows.
	clizdRate = 50.0
	// clizdConns bounds the client's connections (and so the requests in
	// flight); clizdWorkers is the server's worker pool.
	clizdConns   = 2
	clizdWorkers = 2
	// clizdRel is the families' relative bound.
	clizdRel = 1e-3
)

// The request mix: half compress?tune=1 (served from the tuned-pipeline
// cache), a third decompress, the rest verify.
const (
	shareCompress   = 0.50
	shareDecompress = 0.35
)

type reqKind int

const (
	kindCompress reqKind = iota
	kindDecompress
	kindVerify
)

func (k reqKind) String() string {
	return [...]string{"compress", "decompress", "verify"}[k]
}

// family is one dataset family the server is asked about: the request
// body and the three responses, captured and checked at set-up, that every
// later response must equal byte for byte (the codec is deterministic).
type family struct {
	name   string
	lead   string
	dims   []int
	data   []float32
	body   []byte
	blob   []byte // compress?tune=1 response
	floats []byte // decompress response
	verify []byte // verify response
	ratio  float64
	psnr   float64
}

func (f *family) want(k reqKind) []byte {
	switch k {
	case kindCompress:
		return f.blob
	case kindDecompress:
		return f.floats
	}
	return f.verify
}

// checkResponse accepts a response only if it is a 200 carrying exactly
// the reference body.
func (f *family) checkResponse(k reqKind, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", k, f.name, status)
	}
	if want := f.want(k); !bytes.Equal(body, want) {
		return fmt.Errorf("%s %s: %d-byte body differs from the %d-byte reference", k, f.name, len(body), len(want))
	}
	return nil
}

// request is one scheduled arrival.
type request struct {
	at   time.Duration // due time from the phase start
	kind reqKind
	fam  int
}

// outcome is what one request measured.
type outcome struct {
	kind    reqKind
	points  int
	traced  bool
	err     error
	latency time.Duration // from the due time to the last body byte
	late    time.Duration // send start after the due time, for a free connection
	// phases from net/http/httptrace, traced requests only
	connWait, upload, server, download time.Duration
	depth                              int
}

// clizdBench runs an in-process clizd on loopback and drives it with an
// open loop: a seeded Poisson schedule, sent over at most clizdConns
// connections, each request timed from when it was due.
type clizdBench struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	fams   []*family
	sched  []request
	out    []outcome
	before map[string]float64 // /metrics at the phase start
	after  map[string]float64 // and end
	alloc  float64            // heap bytes allocated during the phase
}

func setupClizd(r *run) (instance, error) {
	fams, err := clizdFamilies(r)
	if err != nil {
		return nil, err
	}
	srv, err := service.NewServer(service.Config{Workers: clizdWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &clizdBench{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clizdConns, MaxIdleConnsPerHost: clizdConns,
				DisableCompression: true},
			Timeout: time.Minute,
		},
		base: "http://" + ln.Addr().String(),
		fams: fams,
	}
	go serve(c.hs, ln, c.served)
	for _, f := range fams {
		if err := c.prime(f); err != nil {
			c.close()
			return nil, err
		}
	}
	c.sched = schedule(seedRNG(r.seed, 3), r.phase, len(fams))
	return c, nil
}

// serve runs the server until it is shut down and hands Serve's result to
// done, which close waits for.
func serve(hs *http.Server, ln net.Listener, done chan<- error) { done <- hs.Serve(ln) }

// clizdFamilies crops four unmasked families out of different generators.
func clizdFamilies(r *run) ([]*family, error) {
	dims := []int{16, 128, 128}
	if r.small {
		dims = []int{8, 32, 32}
	}
	rng := seedRNG(r.seed, 4)
	var fams []*family
	for _, src := range []struct {
		name  string
		scale float64
		lead  string
	}{{"Hurricane-T", 0.3, "height"}, {"CESM-T", 0.1, "height"}, {"RELHUM", 0.1, "height"}} {
		ds, err := cropField(fieldSpec{src.name, src.scale, dims, 1, 8}, rng)
		if err != nil {
			return nil, err
		}
		fams = append(fams, &family{name: src.name, lead: src.lead, dims: dims, data: ds.Data})
	}
	// The fourth family stacks timesteps of the drifting temporal field.
	spec := datagen.TemporalScenario(1)[1]
	spec.Frames, spec.NLat, spec.NLon = dims[0], dims[1], dims[2]
	spec.Seed ^= r.seed
	ts, err := datagen.Temporal(spec)
	if err != nil {
		return nil, err
	}
	var data []float32
	for _, fr := range ts.Frames {
		data = append(data, fr...)
	}
	fams = append(fams, &family{name: ts.Name, lead: "time", dims: dims, data: data})
	for _, f := range fams {
		f.body = service.AppendFloatsLE(make([]byte, 0, len(f.data)*4), f.data)
	}
	return fams, nil
}

// schedule draws Poisson arrivals over the phase with the request mix.
func schedule(rng *rand.Rand, phase time.Duration, fams int) []request {
	var out []request
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / clizdRate * float64(time.Second))
		if at >= phase {
			return out
		}
		kind := kindVerify
		switch u := rng.Float64(); {
		case u < shareCompress:
			kind = kindCompress
		case u < shareCompress+shareDecompress:
			kind = kindDecompress
		}
		out = append(out, request{at: at, kind: kind, fam: rng.Intn(fams)})
	}
}

// path is the request target: compress carries the field's metadata.
func (f *family) path(k reqKind) string {
	if k != kindCompress {
		return "/v1/" + k.String()
	}
	parts := make([]string, len(f.dims))
	for i, d := range f.dims {
		parts[i] = strconv.Itoa(d)
	}
	return fmt.Sprintf("/v1/compress?dims=%s&rel=%g&lead=%s&tune=1", strings.Join(parts, "x"), clizdRel, f.lead)
}

// requestBody is the raw field for compress and the blob otherwise.
func (f *family) requestBody(k reqKind) []byte {
	if k == kindCompress {
		return f.body
	}
	return f.blob
}

// post sends one request and reads the whole response.
func (c *clizdBench) post(ctx context.Context, k reqKind, f *family) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+f.path(k), bytes.NewReader(f.requestBody(k)))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// prime tunes the family through the server (filling its pipeline cache),
// checks the compressed blob's decode against the input, and keeps the
// three responses as the references of the phase.
func (c *clizdBench) prime(f *family) error {
	ctx := context.Background()
	status, blob, err := c.post(ctx, kindCompress, f)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, blob)
	}
	if err != nil {
		return fmt.Errorf("clizd: priming %s: %w", f.name, err)
	}
	f.blob = blob
	recon, _, err := core.Decompress(blob)
	if err != nil {
		return fmt.Errorf("clizd: %s: %w", f.name, err)
	}
	ds := &dataset.Dataset{Name: f.name, Data: f.data, Dims: f.dims}
	ref := newReference(ds, ds.AbsErrorBound(clizdRel))
	sse, err := ref.check(recon)
	if err != nil {
		return fmt.Errorf("clizd: %s: %w", f.name, err)
	}
	f.ratio = float64(len(f.body)) / float64(len(blob))
	f.psnr = ref.psnr(sse)
	want := service.AppendFloatsLE(nil, recon)
	for _, k := range []reqKind{kindDecompress, kindVerify} {
		status, body, err := c.post(ctx, k, f)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			return fmt.Errorf("clizd: %s %s: %w", k, f.name, err)
		}
		if k == kindDecompress {
			if !bytes.Equal(body, want) {
				return fmt.Errorf("clizd: decompress %s differs from the local decode", f.name)
			}
			f.floats = body
			continue
		}
		var v struct{ OK bool }
		if err := json.Unmarshal(body, &v); err != nil || !v.OK {
			return fmt.Errorf("clizd: verify %s: not ok: %s", f.name, body)
		}
		f.verify = body
	}
	return nil
}

func (c *clizdBench) inputs() []field {
	var out []field
	for _, f := range c.fams {
		out = append(out, field{f.dims, f.data})
	}
	return out
}

func (c *clizdBench) warm(r *run) {
	f := c.fams[0]
	status, body, err := c.post(context.Background(), kindCompress, f)
	if err == nil {
		err = f.checkResponse(kindCompress, status, body)
	}
	r.check("warm-up", err)
}

func (c *clizdBench) measure(r *run) {
	var err error
	if c.before, err = c.scrape(); err != nil {
		r.check("metrics", err)
		return
	}
	c.out = make([]outcome, len(c.sched))
	a0 := heapAllocs()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clizdConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(c.sched) {
					return
				}
				c.out[i] = c.send(r, r.traced && i%2 == 0, start, i)
			}
		}()
	}
	wg.Wait()
	c.alloc = heapAllocs() - a0
	for _, o := range c.out {
		r.check(o.kind.String(), o.err)
	}
	if c.after, err = c.scrape(); err != nil {
		r.check("metrics", err)
	}
}

// send waits for request i's due time and sends it.
func (c *clizdBench) send(r *run, traced bool, start time.Time, i int) outcome {
	log := r.log(traced)
	q := c.sched[i]
	f := c.fams[q.fam]
	o := outcome{kind: q.kind, points: len(f.data), traced: traced}
	due := start.Add(q.at)
	free := time.Now()
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	sent := time.Now()
	o.late = sent.Sub(laterOf(due, free))

	ctx := context.Background()
	var ph phaseClock
	if log != nil {
		ctx = httptrace.WithClientTrace(ctx, ph.trace(c.srv))
	}
	status, body, err := c.post(ctx, q.kind, f)
	done := time.Now()
	o.latency = done.Sub(due)
	if err == nil {
		err = f.checkResponse(q.kind, status, body)
	}
	o.err = err
	if log != nil && err == nil {
		got, wrote, first := ph.times()
		o.depth = int(ph.depth.Load())
		o.connWait, o.upload = got.Sub(sent), wrote.Sub(got)
		o.server, o.download = first.Sub(wrote), done.Sub(first)
		id := log.add(i+1, 0, "request", due, done)
		log.add(i+1, id, "conn_wait", sent, got)
		log.add(i+1, id, "upload", got, wrote)
		log.add(i+1, id, "server", wrote, first)
		log.add(i+1, id, "download", first, done)
	}
	return o
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// phaseClock records the httptrace events of one request. The transport
// reports them from its own goroutines, hence the atomics.
type phaseClock struct {
	got, wrote, first atomic.Int64 // UnixNano
	depth             atomic.Int64 // the server's queue depth at the first byte
}

func (p *phaseClock) trace(srv *service.Server) *httptrace.ClientTrace {
	return &httptrace.ClientTrace{
		GotConn:      func(httptrace.GotConnInfo) { p.got.Store(time.Now().UnixNano()) },
		WroteRequest: func(httptrace.WroteRequestInfo) { p.wrote.Store(time.Now().UnixNano()) },
		GotFirstResponseByte: func() {
			p.first.Store(time.Now().UnixNano())
			// The handler has not released its worker slot yet, so this
			// request counts itself.
			p.depth.Store(int64(srv.QueueDepth()))
		},
	}
}

func (p *phaseClock) times() (got, wrote, first time.Time) {
	return time.Unix(0, p.got.Load()), time.Unix(0, p.wrote.Load()), time.Unix(0, p.first.Load())
}

// scrape reads the server's /metrics into series → value.
func (c *clizdBench) scrape() (map[string]float64, error) {
	resp, err := c.client.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is how much a /metrics series grew during the phase.
func (c *clizdBench) delta(series string) float64 { return c.after[series] - c.before[series] }

func (c *clizdBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Shutdown closes the listener even when it times out, so Serve returns.
	_ = c.hs.Shutdown(ctx)
	<-c.served
	c.client.CloseIdleConnections()
}

func (c *clizdBench) metrics(r *run) (map[string]float64, error) {
	byKind := map[reqKind][]float64{}
	var all, late []float64
	points := 0
	for _, o := range c.out {
		if o.err != nil {
			continue
		}
		ms := 1e3 * o.latency.Seconds()
		byKind[o.kind] = append(byKind[o.kind], o.latency.Seconds())
		all = append(all, ms)
		late = append(late, 1e3*o.late.Seconds())
		points += o.points
		r.add(opKey(o.traced), ms)
	}
	if len(byKind[kindCompress]) == 0 || len(byKind[kindDecompress]) == 0 || c.after == nil {
		return nil, errNoSamples
	}
	if r.traced {
		m := c.layerMetrics(r)
		m["service.p50_ms"] = median(all)
		m["service.p99_ms"] = quantile(all, 0.99)
		m["loadgen.late_p99_ms"] = quantile(late, 0.99)
		return m, nil
	}
	var ratios, psnr []float64
	for _, f := range c.fams {
		ratios = append(ratios, f.ratio)
		psnr = append(psnr, f.psnr)
	}
	mb := float64(len(c.fams[0].body)) / 1e6
	return map[string]float64{
		"compress_mb_s":   mb / best(byKind[kindCompress]),
		"decompress_mb_s": mb / best(byKind[kindDecompress]),
		"ratio":           geomean(ratios),
		"psnr_db":         mean(psnr),
		"alloc_b_per_pt":  c.alloc / float64(points),
	}, nil
}

// layerMetrics derives the per-layer set: the client's view from the
// traced requests' httptrace phases, the server's from its /metrics.
func (c *clizdBench) layerMetrics(r *run) map[string]float64 {
	var connWait, upload, server, download []float64
	depth := 0
	ly := &layers{stages: make(map[string]*stageSum)}
	for _, o := range c.out {
		if o.err != nil {
			continue
		}
		ly.ops++
		switch o.kind {
		case kindCompress:
			ly.encMB += float64(o.points*4) / 1e6
		case kindDecompress:
			ly.decMB += float64(o.points*4) / 1e6
		}
		if !o.traced {
			continue
		}
		connWait = append(connWait, 1e3*o.connWait.Seconds())
		upload = append(upload, 1e3*o.upload.Seconds())
		server = append(server, 1e3*o.server.Seconds())
		download = append(download, 1e3*o.download.Seconds())
		depth = max(depth, o.depth)
	}
	// The server folds every request's codec stages into per-endpoint
	// totals by base stage name; the phase's share is the growth.
	var reqSec float64
	for series := range c.after {
		switch {
		case strings.HasPrefix(series, "cliz_stage_seconds_total{"):
			d := time.Duration(c.delta(series) * 1e9)
			recs := c.delta(strings.Replace(series, "cliz_stage_seconds_total", "cliz_stage_records_total", 1))
			st := label(series, "stage")
			if ly.stages[st] == nil {
				ly.stages[st] = &stageSum{extra: map[string]float64{}}
			}
			ly.stages[st].dur += d
			ly.stages[st].records += int(recs)
		case strings.HasPrefix(series, "cliz_request_seconds_sum{"):
			reqSec += c.delta(series)
		}
	}
	hits, misses := c.delta("cliz_tune_cache_hits_total"), c.delta("cliz_tune_cache_misses_total")
	m := ly.codecMetrics()
	m["trace.overhead_pct"] = overheadPct(r)
	m["service.conn_wait_ms"] = quantile(connWait, 0.99)
	m["service.upload_ms"] = quantile(upload, 0.99)
	m["service.server_ms"] = quantile(server, 0.99)
	m["service.download_ms"] = quantile(download, 0.99)
	m["service.codec_share"] = ratioOf(ly.ms("total")/1e3, reqSec)
	m["service.cache_hit_ratio"] = ratioOf(hits, hits+misses)
	m["service.queue_depth_max"] = float64(depth)
	return m
}

// label extracts one label's value from a Prometheus series name.
func label(series, name string) string {
	key := name + `="`
	i := strings.Index(series, key)
	if i < 0 {
		return ""
	}
	rest := series[i+len(key):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return rest
}
