package entropy

import (
	"runtime"
	"testing"
)

// TestEncodeAllocsSteadyState guards the pooled histogram: a steady-state
// Huffman encode of a 123k-symbol stream whose symbols span ~33k values
// (bins beside the default radius plus literal escapes at 0) must not
// allocate anything span-sized per call. Beyond the output block itself,
// the bound admits fewer bytes than the span has slots, so not even a
// one-byte-per-slot array fits (the dense histogram's own array is 8 bytes
// per slot).
func TestEncodeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	syms := binStream(21, 123000, 6, 0.005)
	syms[0] = 32768 + 240 // span [0, 33008]
	const span = 32768 + 240 + 1
	EncodeBlockSharded(Huffman, syms, 1) // warm the pool
	allocs := testing.AllocsPerRun(20, func() { EncodeBlockSharded(Huffman, syms, 1) })
	var before, after runtime.MemStats
	const runs = 20
	runtime.GC()
	EncodeBlockSharded(Huffman, syms, 1) // refill the pool the GC emptied
	runtime.ReadMemStats(&before)
	var out []byte
	for i := 0; i < runs; i++ {
		out = EncodeBlockSharded(Huffman, syms, 1)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs, %d B per call, %d B output", allocs, perCall, len(out))
	if allocs > 30 {
		t.Errorf("%.0f allocations per call, want ≤ 30", allocs)
	}
	if extra := int(perCall) - len(out); extra >= span {
		t.Errorf("%d B allocated per call beyond the %d B output: a span-sized (%d slots) allocation", extra, len(out), span)
	}
}
