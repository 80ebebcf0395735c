package huffman

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"cliz/internal/bitio"
)

// quantLike draws n quantizer-shaped symbols: a narrow normal around the
// default radius 32768 with a share of literal escapes (symbol 0) mixed in,
// so the alphabet spans the whole [0, 32768+k] range real bins cover.
func quantLike(seed int64, n int, sd, escape float64) []uint32 {
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

// fibFreqs returns Fibonacci frequencies deep enough that the plain Huffman
// tree exceeds MaxCodeLen, forcing the damping loop.
func fibFreqs() map[uint32]uint64 {
	f := map[uint32]uint64{}
	a, b := uint64(1), uint64(1)
	for i := uint32(0); i < 80 && a <= 1<<55; i++ {
		f[100+3*i] = a
		a, b = b, a+b
	}
	return f
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestEncodeBlockDigests pins the exact bytes of the Huffman encoder: the
// table layout, the canonical code assignment (including tie-breaks among
// equal frequencies) and the length limiter. Any change to these digests is
// a format change, not a refactor.
func TestEncodeBlockDigests(t *testing.T) {
	uniform := make([]uint32, 0, 512*3)
	for s := uint32(0); s < 512; s++ {
		uniform = append(uniform, s, s, s)
	}
	cases := []struct {
		name string
		blob func() []byte
		want string
	}{
		{"empty", func() []byte { return EncodeBlock(nil) }, "709e80c88487a2411e1ee4dfb9f22a861492d20c4765150c0c794abd70f8147c"},
		{"single-symbol", func() []byte { return EncodeBlock([]uint32{42, 42, 42, 42, 42}) }, "00f6bf4983f90e2395618ed9fed48855aaaf91ec1ef14e27576ace7a80f1ecaf"},
		{"single-escape", func() []byte { return EncodeBlock([]uint32{0}) }, "471ae2e922e7ebc82738035d6687c9c9c4166b5d472492e9a4482a27d98ef2be"},
		{"two-symbols", func() []byte { return EncodeBlock([]uint32{32768, 0, 32768, 32768}) }, "1b85d4ed1d3ed1ba7f3afc1834606fe5e644b70a243abbc3bc490128bee173b9"},
		{"radius-narrow", func() []byte { return EncodeBlock(quantLike(1, 20000, 2, 0)) }, "5ed52d70986be8f32fdc0a25e8982a82fc1d7d9441ea0bb6dde557eebaccb28e"},
		{"radius-escapes", func() []byte { return EncodeBlock(quantLike(2, 20000, 40, 0.01)) }, "f07bd3b5dac4afb68f5068cb4988495b505b7e5b46ee711d50a5eb2d4b0ea40f"},
		{"radius-wide", func() []byte { return EncodeBlock(quantLike(3, 50000, 3000, 0.002)) }, "f5c6203f71306a598d06978dfa2a84b66db5616cb8c306d4db7bf297e1639c66"},
		{"equal-freq-ties", func() []byte { return EncodeBlock(uniform) }, "41f50a3a02fbd80fe349252c6a4d7e19bb0ea87900f8b09b726b75eb8e07da5e"},
		{"full-range", func() []byte {
			return EncodeBlock([]uint32{0xFFFFFFFF, 0, 1 << 31, 7, 0xFFFFFFFF, 1 << 31, 0xFFFFFFFF})
		}, "79921717ec0cbed78eb908134a8eaa01c87c3b896e60657d372def488f869013"},
		{"damped-table", func() []byte {
			f := fibFreqs()
			c := codecFromFreqs(f)
			w := bitio.NewWriter(64)
			for s := uint32(100); s < 100+3*80; s += 3 {
				if f[s] > 0 {
					if err := c.Encode([]uint32{s}, w); err != nil {
						t.Fatal(err)
					}
				}
			}
			return append(c.SerializeTable(nil), w.Bytes()...)
		}, "9d0cc50e2c148548540901cacd8b5cb9186f3cc898196b589fb3bb1dd4c57e17"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := digest(tc.blob()); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
