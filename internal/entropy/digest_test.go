package entropy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// binStream draws n quantizer-shaped symbols around the default radius
// 32768 with a share of literal escapes (symbol 0).
func binStream(seed int64, n int, sd, escape float64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	for i := range out {
		if rng.Float64() < escape {
			continue
		}
		out[i] = uint32(32768 + int(rng.NormFloat64()*sd))
	}
	return out
}

// TestEncodeBlockShardedDigests pins the exact bytes of every coder at one
// and four shards: plain and shared-table Huffman, rANS and interleaved
// rANS sub-blocks, and rANS's Huffman fallback for alphabets wider than its
// slot table.
func TestEncodeBlockShardedDigests(t *testing.T) {
	inputs := []struct {
		name string
		syms []uint32
	}{
		{"narrow", binStream(11, 30000, 2, 0.001)},
		{"escapes", binStream(12, 30000, 60, 0.02)},
		{"wide", binStream(13, 30000, 4000, 0)},
	}
	want := map[string]string{
		"narrow/huffman/1":           "456b425926ddc841719dc09b2e766bcd75600ac93f7684601cae8459b7377307",
		"narrow/huffman/4":           "58dbdbb5d7b0d684e8dc8dc50aef23216e7093aa3a7898040e2871af97c2869c",
		"narrow/rans/1":              "13e58e970c12f86ade8f7d5f4f6da159cb2548c411811f7b3855ac80d091af17",
		"narrow/rans/4":              "44a47ae7ad12617b4c6f263e5c05275dd052ec54c0e6983b80d1663f5c8d65c9",
		"narrow/rans-interleaved/1":  "2faa7aaf733e76d21a275e35ebac3585239c5fb7940660d4d9abfb60c1f2f31a",
		"narrow/rans-interleaved/4":  "79acda5b58d9c8462797de4c847fca1c10b0c719cca48af61cce22f07e184ac9",
		"escapes/huffman/1":          "18de49e6207cb86cd35ed96d6af4543ff27f27f68c365f1626a14271a5407641",
		"escapes/huffman/4":          "6c4a37e4748adf227bd5b8e18b58c50036b538f7fb33997a18d86db094aa9b80",
		"escapes/rans/1":             "39273474be97a6c854c6bbad90b02b1ca1b2e3ca95659474cef596294280da24",
		"escapes/rans/4":             "18e7d0cd6d9a34933d45a52661d55b62c1c041c3d406b5115c419151139ebf24",
		"escapes/rans-interleaved/1": "072847ad40dba9efa632340da9dff0a0bf76de7dec6e1bdc698fb8cf912e9e37",
		"escapes/rans-interleaved/4": "9d0a3682aa278e9ecb755fd8ffcd9efbd8e59d5eed2e5b0c6374a1fd03d915b9",
		"wide/huffman/1":             "7ca0ae3f7cfddd1d2e63925eadc2347d6bd95fc4085995d8e30347e0b79c5c36",
		"wide/huffman/4":             "78ced778df18c663989a34ffadb4438b10909f85387f91b1dac1bd5fb514c543",
		"wide/rans/1":                "7ca0ae3f7cfddd1d2e63925eadc2347d6bd95fc4085995d8e30347e0b79c5c36",
		"wide/rans/4":                "6b49ba88317881324b0cf2243167b838ee941cc98a88037378a3bca4adaa6fff",
		"wide/rans-interleaved/1":    "7ca0ae3f7cfddd1d2e63925eadc2347d6bd95fc4085995d8e30347e0b79c5c36",
		"wide/rans-interleaved/4":    "6b49ba88317881324b0cf2243167b838ee941cc98a88037378a3bca4adaa6fff",
	}
	for _, in := range inputs {
		for _, kind := range []Kind{Huffman, RANS, RANSInterleaved} {
			for _, shards := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/%d", in.name, kind, shards)
				t.Run(name, func(t *testing.T) {
					s := sha256.Sum256(EncodeBlockSharded(kind, in.syms, shards))
					if got := hex.EncodeToString(s[:]); got != want[name] {
						t.Errorf("digest %s, want %s", got, want[name])
					}
				})
			}
		}
	}
}
