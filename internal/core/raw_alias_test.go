package core

import (
	"bytes"
	"testing"

	"cliz/internal/lossless"
)

// TestDecodeOutputOwnsItsMemory decodes a blob whose bins and literals are
// stored raw (lossless.Decode then returns subslices of the blob), then
// overwrites the blob: the reconstruction must not change, so no decoded
// value aliases the caller's bytes.
func TestDecodeOutputOwnsItsMemory(t *testing.T) {
	ds := smallSSH()
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	blob, err := Compress(ds, ds.AbsErrorBound(1e-2), p, Options{Backend: lossless.Raw{}})
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := floatsToBytes(recon)
	for i := range blob {
		blob[i] = 0xff
	}
	if !bytes.Equal(floatsToBytes(recon), want) {
		t.Fatal("reconstruction changed with the blob it was decoded from")
	}
}
