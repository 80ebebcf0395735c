package entropy

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomSyms(seed int64, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	syms := make([]uint32, n)
	for i := range syms {
		syms[i] = uint32(32768 + rng.Intn(17) - 8)
	}
	return syms
}

func TestShardedRoundTrip(t *testing.T) {
	for _, kind := range []Kind{Huffman, RANS} {
		for _, n := range []int{0, 1, 2, 7, 100, 5000} {
			for _, shards := range []int{1, 2, 3, 8, 64} {
				syms := randomSyms(int64(n*31+shards), n)
				blob := EncodeBlockSharded(kind, syms, shards)
				for _, workers := range []int{1, 4} {
					got, err := DecodeBlockParallel(blob, workers)
					if err != nil {
						t.Fatalf("%s n=%d shards=%d workers=%d: %v", kind, n, shards, workers, err)
					}
					if len(got) == 0 && len(syms) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, syms) {
						t.Fatalf("%s n=%d shards=%d workers=%d: round trip mismatch", kind, n, shards, workers)
					}
				}
			}
		}
	}
}

func TestShardedDegradesToPlainBlock(t *testing.T) {
	syms := randomSyms(3, 2000)
	plain := EncodeBlock(Huffman, syms)
	if got := EncodeBlockSharded(Huffman, syms, 1); !reflect.DeepEqual(got, plain) {
		t.Fatal("shards=1 must emit the plain block byte-for-byte")
	}
	if got := EncodeBlockSharded[uint32](Huffman, nil, 8); Kind(got[0]) == Sharded {
		t.Fatal("empty stream must not be sharded")
	}
}

func TestShardedDeterministic(t *testing.T) {
	syms := randomSyms(9, 10000)
	a := EncodeBlockSharded(Huffman, syms, 7)
	b := EncodeBlockSharded(Huffman, syms, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sharded encode is not deterministic")
	}
	if Kind(a[0]) != Sharded {
		t.Fatalf("expected sharded kind, got %d", a[0])
	}
}

func TestShardedOverheadIsSmall(t *testing.T) {
	syms := randomSyms(11, 100000)
	plain := EncodeBlock(Huffman, syms)
	sharded := EncodeBlockSharded(Huffman, syms, 8)
	// Shared table + 8 directory entries + up to 7 bytes of shard padding:
	// the overhead should be well under 1%.
	if over := len(sharded) - len(plain); over < 0 || over > len(plain)/100 {
		t.Fatalf("sharded overhead %d bytes over plain %d", over, len(plain))
	}
}

func TestShardedCorruptRejected(t *testing.T) {
	syms := randomSyms(13, 4000)
	blob := EncodeBlockSharded(Huffman, syms, 4)
	cases := map[string][]byte{
		"empty body":   {byte(Sharded)},
		"bad mode":     {byte(Sharded), 9, 0},
		"trunc table":  blob[:3],
		"trunc stream": blob[:len(blob)-5],
	}
	for name, b := range cases {
		if _, err := DecodeBlock(b); err == nil {
			t.Fatalf("%s: corrupt blob accepted", name)
		}
	}
	// Inflate a directory symbol count past the 8*bytes bound.
	mut := append([]byte(nil), blob...)
	// Find the directory: after kind+mode+table. Rather than locating it
	// precisely, flip every byte position and require no panic and either
	// an error or a decode (never a crash).
	for i := range mut {
		mut[i] ^= 0xff
		_, _ = DecodeBlock(mut)
		mut[i] ^= 0xff
	}
}

// TestShardedSkewedRANSRoundTrip pins a conformance-harness find: rANS
// encodes heavily skewed alphabets below one bit per symbol, so a sub-block
// shard legitimately carries more than 8x its payload bytes in symbols. The
// old directory check assumed >= 1 bit/symbol for every mode and rejected
// such blobs at decode as corrupt.
func TestShardedSkewedRANSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, gen := range map[string]func(i int) uint32{
		"constant": func(int) uint32 { return 7 },
		"skewed": func(int) uint32 {
			if rng.Intn(100) == 0 {
				return uint32(rng.Intn(4))
			}
			return 42
		},
	} {
		syms := make([]uint32, 4*minShardSyms)
		for i := range syms {
			syms[i] = gen(i)
		}
		blob := EncodeBlockSharded(RANS, syms, 4)
		if Kind(blob[0]) != Sharded || blob[1] != modeSubBlocks {
			t.Fatalf("%s: expected sharded sub-block container, got %v/%d", name, Kind(blob[0]), blob[1])
		}
		for _, workers := range []int{1, 3} {
			got, err := DecodeBlockParallel(blob, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, syms) {
				t.Fatalf("%s workers=%d: round trip mismatch", name, workers)
			}
		}
	}
}

func TestShardedBlockStats(t *testing.T) {
	syms := randomSyms(17, 8000)
	blob := EncodeBlockSharded(Huffman, syms, 4)
	kind, table, stream, ok := BlockStats(blob)
	if !ok || kind != Sharded {
		t.Fatalf("BlockStats on sharded: kind=%v ok=%v", kind, ok)
	}
	if table <= 0 || stream <= 0 || 1+table+stream != len(blob) {
		t.Fatalf("BlockStats split %d+%d vs len %d", table, stream, len(blob))
	}
	rblob := EncodeBlockSharded(RANS, syms, 4)
	kind, table, stream, ok = BlockStats(rblob)
	if !ok || kind != Sharded || 1+table+stream != len(rblob) {
		t.Fatalf("BlockStats on sharded rANS: kind=%v ok=%v %d+%d vs %d", kind, ok, table, stream, len(rblob))
	}
}

// TestBinsInPlace codes int32 bins where they lie: every kind, plain and
// sharded, writes the same bytes as for the bins' uint32 copy, and
// DecodeBlockInto decodes them back into an int32 slice of exactly the
// block's count at one or two workers. A slice one longer or one shorter
// is rejected.
func TestBinsInPlace(t *testing.T) {
	syms := randomSyms(5, 5000)
	bins := make([]int32, len(syms))
	for i, s := range syms {
		bins[i] = int32(s)
	}
	for _, kind := range []Kind{Huffman, RANS, RANSInterleaved} {
		for _, shards := range []int{1, 3} {
			blob := EncodeBlockSharded(kind, bins, shards)
			if !reflect.DeepEqual(blob, EncodeBlockSharded(kind, syms, shards)) {
				t.Fatalf("%s shards=%d: int32 bins coded differently from their uint32 copy", kind, shards)
			}
			for _, workers := range []int{1, 2} {
				got := make([]int32, len(bins))
				if err := DecodeBlockInto(blob, got, workers); err != nil || !reflect.DeepEqual(got, bins) {
					t.Fatalf("%s shards=%d workers=%d: round trip mismatch (%v)", kind, shards, workers, err)
				}
				for _, n := range []int{len(bins) - 1, len(bins) + 1} {
					if err := DecodeBlockInto(blob, make([]int32, n), workers); err == nil {
						t.Errorf("%s shards=%d workers=%d: %d symbols decoded into %d slots", kind, shards, workers, len(bins), n)
					}
				}
			}
		}
	}
}
