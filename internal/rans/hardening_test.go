package rans

import (
	"errors"
	"math"
	"testing"
)

// TestDecodeBlockMaxBudget pins the caller-supplied symbol budget: a
// block declaring more symbols than the caller can possibly want is
// rejected as corrupt before any output allocation.
func TestDecodeBlockMaxBudget(t *testing.T) {
	syms := []uint32{1, 2, 3, 1, 2, 3, 1, 2}
	blob, ok := EncodeBlock(syms)
	if !ok {
		t.Fatal("EncodeBlock refused a trivially encodable block")
	}
	if _, _, err := DecodeBlockMax(blob, len(syms)); err != nil {
		t.Fatalf("exact budget rejected: %v", err)
	}
	_, _, err := DecodeBlockMax(blob, len(syms)-1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-budget block: want ErrCorrupt, got %v", err)
	}
	if _, _, err := DecodeBlockMax(blob, -1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative budget: want ErrCorrupt, got %v", err)
	}
}

// TestDecodeBlockHugeDeclaredCount splices an absurd symbol count into
// an otherwise valid block. Because a single-symbol rANS stream really
// can emit unbounded symbols from four payload bytes, the count cannot
// be payload-bounded — the absolute MaxBlockSyms cap must reject it
// before make() runs, returning an errors.Is-classifiable error instead
// of attempting a multi-terabyte allocation.
func TestDecodeBlockHugeDeclaredCount(t *testing.T) {
	blob, ok := EncodeBlock([]uint32{7, 7, 7, 7})
	if !ok {
		t.Fatal("EncodeBlock failed")
	}
	pos := 0
	if _, err := parseTable(blob, &pos); err != nil {
		t.Fatalf("parseTable on own output: %v", err)
	}
	tail := pos
	if _, err := readUvarint(blob, &tail); err != nil {
		t.Fatalf("skip count varint: %v", err)
	}
	hostile := append([]byte(nil), blob[:pos]...)
	hostile = appendUvarint(hostile, 1<<40)
	hostile = append(hostile, blob[tail:]...)
	_, _, err := DecodeBlock(hostile)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge declared count: want ErrCorrupt, got %v", err)
	}
}

// TestDecodeBlockHugeStreamLength splices stream lengths near 2^64 into a
// valid block: pos+slen used to wrap in uint64 and pass the bounds check.
func TestDecodeBlockHugeStreamLength(t *testing.T) {
	blob, ok := EncodeBlock([]uint32{3, 3, 8, 3})
	if !ok {
		t.Fatal("EncodeBlock failed")
	}
	pos := 0
	if _, err := parseTable(blob, &pos); err != nil {
		t.Fatal(err)
	}
	if _, err := readUvarint(blob, &pos); err != nil {
		t.Fatal(err)
	}
	tail := pos
	if _, err := readUvarint(blob, &tail); err != nil {
		t.Fatal(err)
	}
	for _, slen := range []uint64{math.MaxUint64, math.MaxUint64 - uint64(pos) + 1, 1 << 63} {
		hostile := appendUvarint(append([]byte(nil), blob[:pos]...), slen)
		hostile = append(hostile, blob[tail:]...)
		if _, _, err := DecodeBlock(hostile); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("slen=%d: want ErrCorrupt, got %v", slen, err)
		}
	}
}
