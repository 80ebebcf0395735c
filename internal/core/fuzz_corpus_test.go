package core

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/grid"
	"cliz/internal/huffman"
	"cliz/internal/lossless"
	"cliz/internal/mask"
	"cliz/internal/predict"
)

// The on-disk seed corpus for FuzzDecompress (testdata/fuzz/FuzzDecompress)
// pins the decoder's hostile-input behaviour: truncated headers, corrupted
// entropy streams, volume-overflow dims and malformed chunked containers.
// `go test` runs every seed through the fuzz target even without -fuzz;
// regenerate the files with `go test ./internal/core -run TestFuzzCorpus -update-corpus`.

var updateCorpus = flag.Bool("update-corpus", false,
	"regenerate the FuzzDecompress seed corpus under testdata/fuzz")

// corpusSeeds builds the hostile blobs from deterministic valid ones.
func corpusSeeds(t testing.TB) map[string][]byte {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	plain, err := Compress(ds, eb, Default(ds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cls := Default(ds)
	cls.Classify = true
	classified, err := Compress(ds, eb, cls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := CompressChunked(ds, eb, Default(ds), Options{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	seeds := map[string][]byte{
		"trunc-magic":      []byte("CLZ"),
		"trunc-header-9":   append([]byte(nil), plain[:9]...),
		"trunc-header-20":  append([]byte(nil), plain[:20]...),
		"trunc-last-bytes": append([]byte(nil), plain[:len(plain)-5]...),
		"trunc-half":       append([]byte(nil), plain[:len(plain)/2]...),
		"chunked-trunc":    append([]byte(nil), chunked[:len(chunked)-7]...),
	}
	// Corrupted Huffman stream: flip bytes in the middle of the bins
	// section (past the header, before the trailing literals).
	corrupt := append([]byte(nil), plain...)
	for i := len(corrupt) / 2; i < len(corrupt)/2+8 && i < len(corrupt); i++ {
		corrupt[i] ^= 0xA5
	}
	seeds["corrupt-huffman"] = corrupt
	corrupt2 := append([]byte(nil), classified...)
	for i := len(corrupt2) / 3; i < len(corrupt2)/3+8 && i < len(corrupt2); i++ {
		corrupt2[i] ^= 0x5A
	}
	seeds["corrupt-multihuffman"] = corrupt2
	// Volume overflow: dims 2^31 × 4 × 2^31 = 2^64 wraps to 0 and used to
	// sneak under the volume cap.
	seeds["dims-overflow"] = overflowBlob()
	// Chunked container whose chunk count exceeds the lead extent.
	badNC := append([]byte(nil), chunked...)
	// layout: "CLZP" ver ndims dims... nchunks — patch nchunks (single
	// varint byte for small values) to 0xFF,0x01 would shift framing, so
	// just overwrite the 1-byte varint with a bigger 1-byte value.
	ncPos := 4 + 1
	p := ncPos
	_, _ = readUvarint(badNC, &p) // ndims
	for i := 0; i < len(ds.Dims); i++ {
		_, _ = readUvarint(badNC, &p)
	}
	badNC[p] = 0x7F
	seeds["chunked-bad-nchunks"] = badNC
	// Chunk lead extents that no longer sum to dims[0].
	badLead := append([]byte(nil), chunked...)
	q := p
	_, _ = readUvarint(badLead, &q) // nchunks
	badLead[q] = 0x01               // first chunk's lead extent -> 1
	seeds["chunked-lead-mismatch"] = badLead
	// Chunked container whose trailing dims disagree with the embedded
	// chunk's (at equal volume and matching lead extent): the per-chunk
	// validation must reject the full dims vector, not just dims[0] — the
	// old check let this write a transposed plane into the output.
	seeds["chunked-plane-mismatch"] = chunkedPlaneMismatch(t)
	// v2 fixture with a bit flipped inside the sharded-entropy bins region:
	// v2 blobs carry no checksums, so this must die in the entropy decoder
	// (or bound check), never panic or silently succeed.
	if v2, err := os.ReadFile(goldenPath("v2-parallel-w4", ".clz")); err == nil {
		flipped := append([]byte(nil), v2...)
		flipped[len(flipped)/2] ^= 0x08
		seeds["v2-shard-dir-flip"] = flipped
	} else {
		t.Fatalf("v2 fixture for fuzz seed: %v", err)
	}
	// v3 blob with a corrupted section payload (checksum must catch it) and
	// one with a corrupted directory entry (the header CRC must catch it
	// before the directory can mis-frame anything). `plain` is a v3 blob:
	// its directory starts right after the psections varint.
	crcFlip := append([]byte(nil), plain...)
	crcFlip[len(crcFlip)-3] ^= 0x10 // inside the literals payload
	seeds["v3-section-crc-flip"] = crcFlip
	dirFlip := append([]byte(nil), plain...)
	hpos := 0
	if _, err := parseHeader(dirFlip, &hpos); err != nil {
		t.Fatalf("v3 seed header: %v", err)
	}
	dirFlip[hpos-6] ^= 0x01 // a directory CRC byte (before the header CRC)
	seeds["v3-dir-flip"] = dirFlip
	// Conformance-harness shapes: a chunked container whose chunks carry
	// sliced rank-2 masks, and a sharded rANS blob whose sub-block shards
	// encode below one bit per symbol (the old shard-directory check
	// rejected such blobs as corrupt). Mutations of these probe the mask
	// slicing and the mode-aware directory validation.
	seeds["chunked-mask-rank2"] = chunkedMaskedRank2(t)
	rblob := shardedRANSBlob(t)
	seeds["rans-sharded"] = rblob
	rflip := append([]byte(nil), rblob...)
	rflip[len(rflip)*2/3] ^= 0x42 // inside the shard payloads
	seeds["rans-sharded-flip"] = rflip
	// Interleaved-rANS blobs, plain and sharded: mutations of these probe
	// the multi-state framing — the ways byte, the per-way final states and
	// the byte-reversed shared stream.
	iblob := interleavedRANSBlob(t, 0)
	seeds["rans-interleaved"] = iblob
	iflip := append([]byte(nil), iblob...)
	iflip[len(iflip)*2/3] ^= 0x37 // inside the interleaved stream
	seeds["rans-interleaved-flip"] = iflip
	seeds["rans-interleaved-sharded"] = interleavedRANSBlob(t, 2)
	// A well-formed v3 blob (Raw lossless bins section, recomputed CRCs)
	// whose Huffman block declares a bitstream length past 2^63: it passes
	// every container check and reaches the Huffman decoder's length check.
	seeds["huffman-blen-overflow"] = huffmanLengthOverflowBlob(t, plain)
	// A well-formed masked v3 blob whose sharded Huffman block declares one
	// symbol more than the unit's valid count.
	seeds["huffman-count-mismatch"] = recodeBins(t, countMismatchBlob(t, true), 1, 2)
	return seeds
}

// countMismatchBlob is a small unclassified unit blob, masked or not, for
// recodeBins.
func countMismatchBlob(t testing.TB, masked bool) []byte {
	dims := []int{24, 20, 16}
	data, v := maskDigestInput(dims, false, 1e35)
	ds := &dataset.Dataset{Name: "count-mismatch", Data: data, Dims: dims, Lead: dataset.LeadTime,
		Mask: v.hm, FillValue: 1e35}
	p := Pipeline{Perm: []int{2, 0, 1}, Fusion: grid.NoFusion(3), Fitting: predict.Cubic, UseMask: masked}
	blob, err := Compress(ds, 0.05, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// unitSections splits an unclassified unit blob into its header and its
// mask (nil when unmasked), bins and literals sections.
func unitSections(t testing.TB, blob []byte) (h header, ms, bins, lits []byte) {
	pos := 0
	h, err := parseHeader(blob, &pos)
	if err != nil {
		t.Fatal(err)
	}
	sr := sectionReader{h: &h}
	if h.flags&flagMask != 0 {
		if ms, err = sr.next(blob, &pos, secMask); err != nil {
			t.Fatal(err)
		}
	}
	if bins, err = sr.next(blob, &pos, secBins); err != nil {
		t.Fatal(err)
	}
	if lits, err = sr.next(blob, &pos, secLiterals); err != nil {
		t.Fatal(err)
	}
	return h, ms, bins, lits
}

// recodeBins rebuilds an unclassified unit blob with the symbols of its bins
// section cut short (delta < 0) or extended by repeating the last one
// (delta > 0), then coded as a Huffman block in `shards` shards (1 for a
// plain block) behind a Raw lossless frame. The container stays well formed.
func recodeBins(t testing.TB, blob []byte, delta, shards int) []byte {
	h, ms, sec, lits := unitSections(t, blob)
	raw, err := lossless.Decode(sec)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := entropy.DecodeBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	if delta < 0 {
		syms = syms[:len(syms)+delta]
	}
	for range max(delta, 0) {
		syms = append(syms, syms[len(syms)-1])
	}
	w := blobWriter{h: h}
	if ms != nil {
		w.add(secMask, ms)
	}
	w.add(secBins, lossless.Encode(lossless.Raw{}, entropy.EncodeBlockSharded(entropy.Huffman, syms, shards)))
	w.add(secLiterals, lits)
	return w.bytes()
}

// TestSymbolCountMismatchCorrupt pins the decoder's count check: the bins
// decode straight into the unit's bins slice, so an entropy block that
// declares one symbol more or one fewer than the unit's valid count must be
// rejected with ErrCorrupt before a symbol is written — masked or not,
// plain or sharded, at one decode worker or two. An unchanged count
// recoded the same way decodes to the original output.
func TestSymbolCountMismatchCorrupt(t *testing.T) {
	for _, masked := range []bool{false, true} {
		blob := countMismatchBlob(t, masked)
		want, _, err := Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2} {
			_, _, sec, _ := unitSections(t, recodeBins(t, blob, 0, shards))
			if kind := entropy.Kind(sec[1]); shards > 1 && kind != entropy.Sharded { // past the Raw id byte
				t.Fatalf("masked=%v: %d shards coded a %v block", masked, shards, kind)
			}
			for _, delta := range []int{-1, 0, 1} {
				bad := recodeBins(t, blob, delta, shards)
				for _, workers := range []int{1, 2} {
					got, _, err := DecompressWithOptions(bad, DecompressOptions{Workers: workers})
					name := fmt.Sprintf("masked=%v shards=%d delta=%+d workers=%d", masked, shards, delta, workers)
					if delta == 0 {
						if err != nil || !slices.Equal(got, want) {
							t.Errorf("%s: recoded blob decodes differently (%v)", name, err)
						}
						continue
					}
					if !errors.Is(err, ErrCorrupt) {
						t.Errorf("%s: error %v, want ErrCorrupt", name, err)
					}
				}
			}
		}
	}
}

// huffmanLengthOverflowBlob rebuilds the unmasked, unclassified v3 blob
// plain with its bins section replaced by a Raw-wrapped Huffman block of one
// symbol whose bitstream length is 2^63+1.
func huffmanLengthOverflowBlob(t testing.TB, plain []byte) []byte {
	pos := 0
	h, err := parseHeader(plain, &pos)
	if err != nil {
		t.Fatal(err)
	}
	sr := sectionReader{h: &h}
	if _, err := sr.next(plain, &pos, secBins); err != nil {
		t.Fatal(err)
	}
	lits, err := sr.next(plain, &pos, secLiterals)
	if err != nil {
		t.Fatal(err)
	}
	block := huffman.Build([]uint32{uint32(h.radius)}).SerializeTable([]byte{byte(entropy.Huffman)})
	block = appendUvarint(block, 1)
	block = appendUvarint(block, 1<<63+1)
	block = append(block, 0x80)
	w := blobWriter{h: h}
	w.add(secBins, lossless.Encode(lossless.Raw{}, block))
	w.add(secLiterals, lits)
	return w.bytes()
}

// interleavedRANSBlob builds a unit blob whose bins section is coded with
// N-way interleaved rANS (sharded sub-blocks when workers > 1).
func interleavedRANSBlob(t testing.TB, workers int) []byte {
	dims := []int{20, 10, 12}
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		data[i] = float32((i*7)%23) * 2e-6
	}
	ds := &dataset.Dataset{Name: "fuzz-rans-interleaved", Data: data, Dims: dims}
	blob, err := Compress(ds, 0.5, Default(ds), Options{Entropy: entropy.RANSInterleaved, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// chunkedMaskedRank2 builds a chunked container over a masked rank-2 grid:
// the split axis is part of the (lat, lon) mask plane, so each chunk embeds
// a sliced mask (the shape the conformance harness caught crashing).
func chunkedMaskedRank2(t testing.TB) []byte {
	const nLat, nLon = 6, 5
	data := make([]float32, nLat*nLon)
	regions := make([]int32, nLat*nLon)
	for i := range data {
		data[i] = float32(i) * 0.5
		if i%4 == 0 {
			data[i] = -9999
			regions[i] = 0
		} else {
			regions[i] = 1
		}
	}
	ds := &dataset.Dataset{
		Name:      "fuzz-chunk-mask",
		Data:      data,
		Dims:      []int{nLat, nLon},
		Mask:      mask.New(nLat, nLon, regions),
		FillValue: -9999,
	}
	p := Default(ds)
	p.UseMask = true
	blob, err := CompressChunked(ds, 1e-3, p, Options{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// shardedRANSBlob builds a unit blob whose bins section is a sharded rANS
// container with sub-block shards far below one bit per symbol.
func shardedRANSBlob(t testing.TB) []byte {
	dims := []int{24, 8, 16}
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		data[i] = float32(i%16) * 1e-6
	}
	ds := &dataset.Dataset{Name: "fuzz-rans-shards", Data: data, Dims: dims}
	blob, err := Compress(ds, 0.5, Default(ds), Options{Entropy: entropy.RANS, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// chunkedPlaneMismatch wraps a valid [2,3,5] unit blob in a container that
// declares dims [2,5,3]: same volume, same lead, swapped planes.
func chunkedPlaneMismatch(t testing.TB) []byte {
	sw := &dataset.Dataset{Name: "swap", Data: make([]float32, 2*3*5), Dims: []int{2, 3, 5}}
	for i := range sw.Data {
		sw.Data[i] = float32(i % 7)
	}
	blob, err := Compress(sw, 0.01, Default(sw), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := []byte(parMagic)
	out = append(out, version1)
	out = appendUvarint(out, 3)
	out = appendUvarint(out, 2)
	out = appendUvarint(out, 5) // swapped trailing dims
	out = appendUvarint(out, 3)
	out = appendUvarint(out, 1) // one chunk
	out = appendUvarint(out, 2) // lead extent matches
	return appendSection(out, blob)
}

// overflowBlob hand-crafts a header whose dims volume wraps past 1<<64.
func overflowBlob() []byte {
	out := []byte(magic)
	out = append(out, version1, 0)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(1.0))
	out = append(out, b8[:]...)
	out = append(out, 0, 0, 0, 0) // fill value
	out = appendUvarint(out, 32768)
	out = appendUvarint(out, 3)
	out = appendUvarint(out, 1<<31)
	out = appendUvarint(out, 4)
	out = appendUvarint(out, 1<<31)
	out = append(out, 0, 1, 2) // perm
	out = appendUvarint(out, 3)
	out = append(out, 1, 1, 1)  // fusion groups
	out = appendUvarint(out, 0) // period
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(0))
	out = append(out, b8[:]...)
	out = appendUvarint(out, 0) // empty bins section
	out = appendUvarint(out, 0) // empty literals section
	return out
}

func fuzzCorpusDir() string {
	return filepath.Join("testdata", "fuzz", "FuzzDecompress")
}

// TestFuzzCorpus regenerates the seed files with -update-corpus and always replays
// every on-disk seed through the decoder entry points, requiring a clean
// error or a clean success — never a panic.
func TestFuzzCorpus(t *testing.T) {
	seeds := corpusSeeds(t)
	if *updateCorpus {
		if err := os.MkdirAll(fuzzCorpusDir(), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, blob := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(blob)) + ")\n"
			if err := os.WriteFile(filepath.Join(fuzzCorpusDir(), "seed-"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d seeds", len(seeds))
	}
	// The Huffman length-overflow seed must get through the container and
	// be rejected by the Huffman block decoder itself.
	if _, _, err := Decompress(seeds["huffman-blen-overflow"]); !errors.Is(err, huffman.ErrCorrupt) {
		t.Fatalf("huffman length-overflow seed: want huffman.ErrCorrupt, got %v", err)
	}
	// The crafted overflow header must be rejected at parse time, not
	// merely die downstream.
	if _, err := Inspect(overflowBlob()); err == nil {
		t.Fatal("overflow dims accepted by Inspect")
	}
	entries, err := os.ReadDir(fuzzCorpusDir())
	if err != nil {
		t.Fatalf("%v (regenerate with -update-corpus)", err)
	}
	ran := 0
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(fuzzCorpusDir(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := parseCorpusEntry(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		t.Run(e.Name(), func(t *testing.T) {
			if IsChunked(blob) {
				_, _, _ = DecompressChunked(blob, 1)
				_, _, _, _ = DecompressPartial(blob, DecompressOptions{})
			} else {
				_, _, _ = Decompress(blob)
			}
			_, _ = Inspect(blob)
			_ = Verify(blob)
		})
		ran++
	}
	if ran < len(seeds) {
		t.Fatalf("only %d corpus files on disk, expected at least %d (regenerate with -update-corpus)", ran, len(seeds))
	}
}

// parseCorpusEntry reads the Go fuzz corpus v1 format: a version line
// followed by one []byte("...") literal.
func parseCorpusEntry(s string) ([]byte, error) {
	lines := strings.SplitN(strings.TrimSpace(s), "\n", 2)
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "go test fuzz v1") {
		return nil, fmt.Errorf("not a v1 corpus entry")
	}
	body := strings.TrimSpace(lines[1])
	body = strings.TrimPrefix(body, "[]byte(")
	body = strings.TrimSuffix(body, ")")
	str, err := strconv.Unquote(body)
	if err != nil {
		return nil, err
	}
	return []byte(str), nil
}
