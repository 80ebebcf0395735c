package cliz_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"cliz"
)

func gradientDataset(name string) *cliz.Dataset {
	data := make([]float32, 6*8*10)
	for i := range data {
		data[i] = float32(i%13) * 0.25
	}
	return &cliz.Dataset{Name: name, Data: data, Dims: []int{6, 8, 10}, Lead: cliz.LeadTime}
}

// TestZeroValuePipelineRejected pins the fix for the silently-ignored
// pipeline bug: passing a non-nil but zero-value &cliz.Pipeline{} (never
// produced by AutoTune or DefaultPipeline) used to be silently swapped for
// the default pipeline by both Compress and CompressChunked. It must be a
// clear error instead — only an explicit nil selects the default.
func TestZeroValuePipelineRejected(t *testing.T) {
	ds := gradientDataset("zerovalue")
	if _, _, err := cliz.Compress(ds, cliz.Abs(0.01), &cliz.Pipeline{}); err == nil {
		t.Fatal("Compress accepted a zero-value Pipeline")
	} else if !strings.Contains(err.Error(), "zero-value Pipeline") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, _, err := cliz.CompressChunked(ds, cliz.Abs(0.01), &cliz.Pipeline{}, 2, 2); err == nil {
		t.Fatal("CompressChunked accepted a zero-value Pipeline")
	} else if !strings.Contains(err.Error(), "zero-value Pipeline") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// nil still selects the default, and a real pipeline still works.
	if _, _, err := cliz.Compress(ds, cliz.Abs(0.01), nil); err != nil {
		t.Fatalf("nil pipeline: %v", err)
	}
	pipe, err := cliz.DefaultPipeline(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cliz.Compress(ds, cliz.Abs(0.01), &pipe); err != nil {
		t.Fatalf("default pipeline: %v", err)
	}
}

// TestRelBoundZeroRangeRejected pins the fix for the silently-succeeding
// relative bound on a constant field: with a zero value range there is
// nothing for Rel to be relative to, and the old code quietly substituted a
// range of 1. The error must name the zero range and point at Abs.
func TestRelBoundZeroRangeRejected(t *testing.T) {
	data := make([]float32, 64)
	for i := range data {
		data[i] = 3.5
	}
	ds := &cliz.Dataset{Name: "const", Data: data, Dims: []int{8, 8}}
	_, _, err := cliz.Compress(ds, cliz.Rel(1e-2), nil)
	if err == nil {
		t.Fatal("Rel bound on constant field compressed without error")
	}
	if !strings.Contains(err.Error(), "zero value range") {
		t.Fatalf("error does not name the zero value range: %v", err)
	}
	// The same field under an absolute bound still works.
	if _, _, err := cliz.Compress(ds, cliz.Abs(0.01), nil); err != nil {
		t.Fatalf("Abs on constant field: %v", err)
	}
}

// TestWithWorkersRoundTrip drives the public WithWorkers option end to end:
// parallel encode round-trips within the bound, decode output is identical
// for every decode-side worker count, and the chunked path accepts the
// option too.
func TestWithWorkersRoundTrip(t *testing.T) {
	ds := gradientDataset("workers")
	blob, info, err := cliz.Compress(ds, cliz.Abs(0.01), nil, cliz.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if info.Ratio <= 0 {
		t.Fatalf("ratio %g", info.Ratio)
	}
	ref, dims, err := cliz.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 3 || dims[0] != 6 || dims[1] != 8 || dims[2] != 10 {
		t.Fatalf("dims %v", dims)
	}
	for i, v := range ref {
		if math.Abs(float64(v)-float64(ds.Data[i])) > 0.01*1.00001 {
			t.Fatalf("point %d exceeds bound", i)
		}
	}
	for _, w := range []int{1, 2, 8} {
		got, _, err := cliz.Decompress(blob, cliz.WithWorkers(w))
		if err != nil {
			t.Fatalf("decode workers=%d: %v", w, err)
		}
		if !bytes.Equal(floatBytes(got), floatBytes(ref)) {
			t.Fatalf("decode workers=%d: output differs", w)
		}
	}
	chunked, _, err := cliz.CompressChunked(ds, cliz.Abs(0.01), nil, 2, 2, cliz.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := cliz.Decompress(chunked, cliz.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recon {
		if math.Abs(float64(v)-float64(ds.Data[i])) > 0.01*1.00001 {
			t.Fatalf("chunked point %d exceeds bound", i)
		}
	}
}

func floatBytes(data []float32) []byte {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

// TestWithEntropyKinds drives the public entropy-kind option end to end:
// every entropy kind round-trips through the bound.
func TestWithEntropyKinds(t *testing.T) {
	ds := gradientDataset("entropy-opts")
	for _, k := range []cliz.EntropyKind{cliz.EntropyHuffman, cliz.EntropyRANS, cliz.EntropyRANSInterleaved} {
		blob, _, err := cliz.Compress(ds, cliz.Abs(0.01), nil, cliz.WithEntropy(k))
		if err != nil {
			t.Fatalf("%v: compress: %v", k, err)
		}
		recon, dims, err := cliz.Decompress(blob)
		if err != nil {
			t.Fatalf("%v: decompress: %v", k, err)
		}
		if len(dims) != 3 || dims[0] != 6 || dims[1] != 8 || dims[2] != 10 {
			t.Fatalf("%v: dims %v", k, dims)
		}
		for i := range recon {
			if d := float64(recon[i] - ds.Data[i]); d > 0.01 || d < -0.01 {
				t.Fatalf("%v: bound violated at %d: %v vs %v", k, i, recon[i], ds.Data[i])
			}
		}
	}
}
