package core

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"cliz/internal/grid"
	"cliz/internal/predict"
)

// TestShortLiteralStreamCorrupt writes masked unit blobs whose literal
// stream is one literal short, and empty, and requires ErrCorrupt from the
// decoder, with both engines, for one predict section (whose literal count
// the decoder does not precompute: the engine catches the underrun) and for
// two (where the section prefix sums catch it).
func TestShortLiteralStreamCorrupt(t *testing.T) {
	dims := []int{48, 40, 40}
	data, v := maskDigestInput(dims, false, 1e35)
	for i := 0; i < len(data); i += 37 {
		data[i] += 50 // spikes the radius-4 quantizer cannot reach
	}
	for _, fit := range []predict.Fitting{predict.Cubic, predict.Lorenzo} {
		for _, workers := range []int{1, 2} {
			p := Pipeline{Perm: []int{0, 2, 1}, Fusion: grid.NoFusion(3), Fitting: fit, UseMask: true}
			opt := Options{Workers: workers, Radius: 4, sectionLeadFloor: 4}
			u, err := predictUnit(data, dims, v, 0.06, p, 1e35, opt, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if u.P != workers || len(u.lits) < 2 {
				t.Fatalf("%v P=%d: %d sections, %d literals", fit, workers, u.P, len(u.lits))
			}
			lits := u.lits
			for _, keep := range []int{len(lits) - 1, 0} {
				u.lits, u.litEnc = lits[:keep], nil
				blob, err := u.encode(false)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := Decompress(blob); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%v P=%d, %d of %d literals: error %v, want ErrCorrupt",
						fit, workers, keep, len(lits), err)
				}
			}
		}
	}
}

// TestChunkedPlaneMismatchRejected pins the fix for the chunked decoder's
// dims validation: a container whose trailing dims disagree with the
// embedded chunk's (at equal volume and matching lead extent) used to pass
// the old dims[0]-only check and silently copy a transposed plane into the
// output. It must be rejected as corrupt.
func TestChunkedPlaneMismatchRejected(t *testing.T) {
	blob := chunkedPlaneMismatch(t)
	if _, _, err := DecompressChunked(blob, 2); err == nil {
		t.Fatal("container with swapped trailing dims decoded without error")
	}
}

// TestEncodeDeterministicForFixedWorkers asserts the determinism contract:
// the encoded blob depends only on (data, pipeline, options) — never on
// goroutine scheduling.
func TestEncodeDeterministicForFixedWorkers(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	for _, w := range []int{1, 2, 4, 8} {
		var prev []byte
		for run := 0; run < 3; run++ {
			blob, err := Compress(ds, eb, p, Options{Workers: w, sectionLeadFloor: 8})
			if err != nil {
				t.Fatalf("workers=%d run=%d: %v", w, run, err)
			}
			if prev != nil && !bytes.Equal(prev, blob) {
				t.Fatalf("workers=%d: encode not deterministic across runs", w)
			}
			prev = blob
		}
	}
}

// TestDecodeWorkerCountIndependence asserts that decode output is identical
// for every decode-side worker count: the section partition is read from the
// blob header, and the shard directory is self-describing.
func TestDecodeWorkerCountIndependence(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	blob, err := Compress(ds, eb, p, Options{Workers: 8, sectionLeadFloor: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, refDims, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, ds, ref, eb)
	for _, w := range []int{1, 2, 3, 8, 16} {
		got, dims, err := DecompressWithOptions(blob, DecompressOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !dimsEqual(dims, refDims) {
			t.Fatalf("workers=%d: dims %v want %v", w, dims, refDims)
		}
		if !bytes.Equal(floatsToBytes(got), floatsToBytes(ref)) {
			t.Fatalf("workers=%d: decode output differs from serial decode", w)
		}
	}
}

// TestWorkersRoundTripPipelines round-trips every pipeline shape through the
// parallel encoder: sectioned prediction changes which neighbours each
// section's predictor sees, so the reconstruction may differ from the serial
// one — but it must still respect the error bound everywhere.
func TestWorkersRoundTripPipelines(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	pipes := map[string]func() Pipeline{
		"default": func() Pipeline { return Default(ds) },
		"classify": func() Pipeline {
			p := Default(ds)
			p.Classify = true
			return p
		},
		"periodic": func() Pipeline {
			p := Default(ds)
			p.Period = 12
			return p
		},
		"lorenzo": func() Pipeline {
			p := Default(ds)
			p.Fitting = predict.Lorenzo
			return p
		},
	}
	for name, mk := range pipes {
		for _, w := range []int{2, 8} {
			blob, err := Compress(ds, eb, mk(), Options{Workers: w, sectionLeadFloor: 8})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			recon, dims, err := Decompress(blob)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !dimsEqual(dims, ds.Dims) {
				t.Fatalf("%s workers=%d: dims %v", name, w, dims)
			}
			checkBound(t, ds, recon, eb)
		}
	}
}

// TestChunkedSingleChunkMatchesUnchunked: a 1-chunk container runs the exact
// same pipeline over the exact same data as the plain compressor, so the two
// reconstructions must agree bit-for-bit (the property test anchoring the
// chunked/unchunked equivalence family).
func TestChunkedSingleChunkMatchesUnchunked(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	plain, err := Compress(ds, eb, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := CompressChunked(ds, eb, p, Options{}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Decompress(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, dims, err := DecompressChunked(chunked, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !dimsEqual(dims, ds.Dims) {
		t.Fatalf("dims %v", dims)
	}
	if !bytes.Equal(floatsToBytes(got), floatsToBytes(want)) {
		t.Fatal("single-chunk container decode differs from plain decode")
	}
}

// TestChunkedPeriodSnappedEquivalence sweeps chunk counts over a periodic
// pipeline (bounds snap to whole periods) and worker counts, requiring every
// combination to reconstruct within the bound with worker-count-independent
// decode output.
func TestChunkedPeriodSnappedEquivalence(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	for _, nChunks := range []int{2, 3, 5} {
		blob, err := CompressChunked(ds, eb, p, Options{Workers: 2, sectionLeadFloor: 8}, nChunks, 2)
		if err != nil {
			t.Fatalf("chunks=%d: %v", nChunks, err)
		}
		var ref []byte
		for _, w := range []int{1, 2, 4} {
			recon, dims, err := DecompressChunked(blob, w)
			if err != nil {
				t.Fatalf("chunks=%d workers=%d: %v", nChunks, w, err)
			}
			if !dimsEqual(dims, ds.Dims) {
				t.Fatalf("chunks=%d: dims %v", nChunks, dims)
			}
			checkBound(t, ds, recon, eb)
			raw := floatsToBytes(recon)
			if ref == nil {
				ref = raw
			} else if !bytes.Equal(ref, raw) {
				t.Fatalf("chunks=%d workers=%d: decode differs", nChunks, w)
			}
		}
	}
}

// TestWorkers1MatchesV1Golden pins the format-compatibility contract: the
// Workers=1 v3 encoding of a fixture's inputs carries byte-identical section
// payloads to the committed v1 blob — only the version byte, the psections
// field, and the integrity directory differ. The expected blob is built by
// re-wrapping the v1 fixture's own sections with the v3 writer.
func TestWorkers1MatchesV1Golden(t *testing.T) {
	v1, err := os.ReadFile(goldenPath("cubic-default", ".clz"))
	if err != nil {
		t.Fatalf("%v (v1 fixture missing)", err)
	}
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	v3, err := Compress(ds, eb, Default(ds), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	h, err := parseHeader(v1, &pos)
	if err != nil {
		t.Fatalf("v1 fixture header: %v", err)
	}
	if h.psections != 1 {
		t.Fatalf("v1 fixture parsed psections=%d, want implied 1", h.psections)
	}
	var ids []byte
	if h.flags&(flagMask|flagPointMask) != 0 {
		ids = append(ids, secMask)
	}
	if h.flags&flagClassify != 0 {
		ids = append(ids, secClassMeta, secBinsA, secBinsB)
	} else {
		ids = append(ids, secBins)
	}
	ids = append(ids, secLiterals)
	w := blobWriter{h: h}
	for _, id := range ids {
		sec, err := readSection(v1, &pos)
		if err != nil {
			t.Fatalf("v1 fixture section %s: %v", sectionName(id), err)
		}
		w.add(id, sec)
	}
	if pos != len(v1) {
		t.Fatalf("v1 fixture has %d trailing bytes", len(v1)-pos)
	}
	want := w.bytes()
	if !bytes.Equal(v3, want) {
		t.Fatalf("Workers=1 v3 encode diverges from the re-wrapped v1 fixture beyond the header (%d vs %d bytes)",
			len(v3), len(want))
	}
}
