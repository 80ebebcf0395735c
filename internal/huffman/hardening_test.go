package huffman

import (
	"errors"
	"testing"
)

// TestParseTableHugeDeclaredCount feeds ParseTable a header declaring
// far more entries than the payload could hold. Each entry costs at
// least two bytes, so the count must be rejected before the symbol map
// is sized — returning ErrCorrupt, not allocating gigabytes.
func TestParseTableHugeDeclaredCount(t *testing.T) {
	blob := appendUvarint(nil, 1<<40)
	blob = append(blob, 0x01, 0x05) // a lone (delta, length) pair
	_, _, err := ParseTable(blob)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge table count: want ErrCorrupt, got %v", err)
	}
}

// TestDecodeBlockMaxBudget pins the caller-supplied symbol budget on
// the block decoder: counts beyond the budget are corrupt, and the
// sentinel -1 (no caller budget) still applies the payload-length cap.
func TestDecodeBlockMaxBudget(t *testing.T) {
	syms := []uint32{4, 4, 9, 4, 9, 2, 4, 4}
	blob := EncodeBlock(syms)
	if _, _, err := DecodeBlockMax(blob, len(syms)); err != nil {
		t.Fatalf("exact budget rejected: %v", err)
	}
	if _, _, err := DecodeBlockMax(blob, -1); err != nil {
		t.Fatalf("unbounded budget rejected: %v", err)
	}
	_, _, err := DecodeBlockMax(blob, len(syms)-1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-budget block: want ErrCorrupt, got %v", err)
	}
}

// TestDecodeBlockHugeBitstreamLength splices bitstream lengths near 2^63
// and 2^64 into a valid block. Converted to int before the bounds check,
// they used to wrap negative: with one symbol the decoder sliced out of
// range and panicked, with zero symbols it returned a negative consumed
// count and no error.
func TestDecodeBlockHugeBitstreamLength(t *testing.T) {
	for _, n := range []uint64{0, 1} {
		for _, blen := range []uint64{1<<63 + 1, 1 << 63, 1<<64 - 1, 1<<64 - 8} {
			blob := Build([]uint32{5}).SerializeTable(nil)
			blob = appendUvarint(blob, n)
			blob = appendUvarint(blob, blen)
			blob = append(blob, 0xff)
			got, used, err := DecodeBlockMax(blob, -1)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("n=%d blen=%d: want ErrCorrupt, got %v (%d symbols, %d bytes)", n, blen, err, len(got), used)
			}
		}
	}
}
