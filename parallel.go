package cliz

import "cliz/internal/core"

// CompressChunked splits the dataset along its leading dimension into
// nChunks independently-compressed pieces and compresses them concurrently
// with the given number of workers (0 = GOMAXPROCS) — the library-level
// counterpart of the paper's per-core-file Globus setup (§VII-C4). Periodic
// pipelines keep chunk boundaries on whole periods. The container is decoded
// (also in parallel) by the regular Decompress. With WithTrace attached,
// each chunk's stages are recorded path-qualified as "chunk[i]/...".
// WithWorkers additionally bounds parallelism *inside* each chunk; the two
// levels multiply, so keep the product near GOMAXPROCS.
func CompressChunked(ds *Dataset, eb ErrorBound, pipe *Pipeline, nChunks, workers int, opts ...Option) ([]byte, *CompressInfo, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	ids, abs, p, err := prepare(ds, eb, pipe)
	if err != nil {
		return nil, nil, err
	}
	blob, err := core.CompressChunked(ids, abs, p, core.Options{
		Trace:     cfg.trace.collector(),
		Workers:   cfg.workers,
		Entropy:   cfg.entropy,
		Interrupt: cfg.interrupt(),
	}, nChunks, workers)
	if err != nil {
		return nil, nil, err
	}
	return blob, newCompressInfo(ids, blob, p, &cfg), nil
}
