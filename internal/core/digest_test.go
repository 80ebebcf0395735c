package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cliz/internal/lossless"
)

// TestWorkers1BlobDigests pins the Workers=1 blob of every goldenCases
// pipeline by SHA-256, with the lossless stage forced to Flate level 6. The
// frozen v1 fixtures pin only what the decoder reads, so without these
// digests the serial encoder's bytes (Huffman and rANS bins, classified
// multi-stream bins, the chunked container) would be unpinned. The hashes
// predate pooled Flate state and single-copy section framing, so they also
// pin both as bit-identical.
func TestWorkers1BlobDigests(t *testing.T) {
	checkWorkers1Digests(t, lossless.Flate{Level: 6}, map[string]string{
		"cubic-default":          "3bfcec94d97b59dca1896400ac3dae4b0baef7cae9b476c25bb80d8bf97062bc",
		"linear-perm-fuse":       "11b29cbf9ca0b058f7ec82112e5aaf7eb536933824ffd5ef62accc29da1167bf",
		"lorenzo":                "fc751b53b3101e7b55722dd99055bc1cecb28afc49eb269b3ba4eb55d826b7d6",
		"classify-alpha":         "04b31a1cca2452096ac254b4d76ab8e0ca7731abea4882311179e91622112174",
		"periodic-mask-classify": "34309d30c5ddb3e5b42e05fdb33306b7e5b0ededcc77ef073c793a14d746a6ab",
		"rans":                   "93ea4494b7e20518cb433fd1344864565ba9e859316bb746457e0c5aa7fd0871",
		"chunked":                "08badf5e6e5d14ed0c7947e532c505f81eec6918afe22ebbd0e70250f3e028f5",
	})
}

// TestWorkers1BlobDigestsDefault pins the same blobs under the default
// (nil) backend, which stores a section raw when its byte entropy reaches
// 7.9 bits/B. Only linear-perm-fuse's and rans's bins sections are that
// dense; every other blob matches its Flate-6 digest above.
func TestWorkers1BlobDigestsDefault(t *testing.T) {
	checkWorkers1Digests(t, nil, map[string]string{
		"cubic-default":          "3bfcec94d97b59dca1896400ac3dae4b0baef7cae9b476c25bb80d8bf97062bc",
		"linear-perm-fuse":       "a1ad996ddaef8eda76bc734c257d25d3e546b9623d7fb323a96a8c9621f72f3c",
		"lorenzo":                "fc751b53b3101e7b55722dd99055bc1cecb28afc49eb269b3ba4eb55d826b7d6",
		"classify-alpha":         "04b31a1cca2452096ac254b4d76ab8e0ca7731abea4882311179e91622112174",
		"periodic-mask-classify": "34309d30c5ddb3e5b42e05fdb33306b7e5b0ededcc77ef073c793a14d746a6ab",
		"rans":                   "6fb498c505f91ec4cfd3d72d049b65868de4469b73b6d71920ed11d79938e501",
		"chunked":                "08badf5e6e5d14ed0c7947e532c505f81eec6918afe22ebbd0e70250f3e028f5",
	})
}

func checkWorkers1Digests(t *testing.T, be lossless.Codec, want map[string]string) {
	t.Helper()
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds()
			eb := ds.AbsErrorBound(tc.rel)
			opt := tc.opt
			opt.Workers = 1
			opt.Backend = be
			var blob []byte
			var err error
			if tc.chunks > 0 {
				blob, err = CompressChunked(ds, eb, tc.pipe(ds), opt, tc.chunks, 1)
			} else {
				blob, err = Compress(ds, eb, tc.pipe(ds), opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			s := sha256.Sum256(blob)
			if got := hex.EncodeToString(s[:]); got != want[tc.name] {
				t.Errorf("digest %s, want %s", got, want[tc.name])
			}
		})
	}
}
