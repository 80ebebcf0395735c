package lossless

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestEncodeDefaultChoice pins the nil-codec rule: raw at a byte entropy of
// 7.9 bits/B or more, flate below it, and flate for inputs too short to
// reach 7.9 (the plug-in entropy of n bytes is at most log2 n).
func TestEncodeDefaultChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 1<<16)
	rng.Read(random)
	mid := make([]byte, 1<<16) // 16 equiprobable values: 4 bits/B
	for i := range mid {
		mid[i] = byte(rng.Intn(16)) * 13
	}
	cases := []struct {
		name string
		src  []byte
		want byte
	}{
		{"random", random, IDRaw},
		{"random-short", random[:200], IDFlate},
		{"zero-runs", make([]byte, 1<<16), IDFlate},
		{"mid-entropy", mid, IDFlate},
		{"empty", nil, IDFlate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := Encode(nil, tc.src)
			if blob[0] != tc.want {
				t.Errorf("backend id %d, want %d (entropy %.3f bits/B)", blob[0], tc.want, byteEntropy(tc.src))
			}
			got, err := Decode(blob)
			if err != nil || !bytes.Equal(got, tc.src) {
				t.Fatalf("round trip failed: %v", err)
			}
		})
	}
}

func TestByteEntropy(t *testing.T) {
	perm := make([]byte, 256*7+3) // every value 7 times, then 3 more
	for i := range perm {
		perm[i] = byte(i)
	}
	cases := []struct {
		name string
		src  []byte
		want float64
	}{
		{"empty", nil, 0},
		{"constant", bytes.Repeat([]byte{9}, 1001), 0},
		{"two-halves", append(bytes.Repeat([]byte{1}, 50), bytes.Repeat([]byte{2}, 50)...), 1},
		{"uniform", perm[:256*7], 8},
	}
	for _, tc := range cases {
		if got := byteEntropy(tc.src); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: entropy %v, want %v", tc.name, got, tc.want)
		}
	}
	// The tail past the last multiple of 4 is counted: 3 extra bytes tip a
	// uniform histogram below 8 bits.
	if got := byteEntropy(perm); got >= 8 || got < 7.99 {
		t.Errorf("uneven tail: entropy %v", got)
	}
}

// TestRawDecodeAliases pins that raw streams decode without a copy: the
// result is the blob's own payload bytes.
func TestRawDecodeAliases(t *testing.T) {
	blob := Encode(Raw{}, []byte("payload"))
	got, err := Decode(blob)
	if err != nil || string(got) != "payload" {
		t.Fatalf("decode %q, %v", got, err)
	}
	if &got[0] != &blob[1] {
		t.Fatal("raw decode copied its input")
	}
}

// TestFlateAllocsSteadyState guards the pooled Flate state: a steady-state
// encode allocates its output and nothing writer-sized (a fresh
// flate.Writer is about 800 KB), and a decode allocates its output and
// nothing reader-sized (a fresh reader holds a 32 KB window).
func TestFlateAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := rand.New(rand.NewSource(4))
	src := make([]byte, 1<<16)
	for i := range src {
		src[i] = byte(rng.Intn(40))
	}
	c := Flate{Level: 6}
	blob := Encode(c, src)
	if _, err := Decode(blob); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	for _, op := range []struct {
		name string
		out  int
		run  func()
	}{
		{"encode", len(blob), func() { Encode(c, src) }},
		{"decode", len(src), func() { _, _ = Decode(blob) }},
	} {
		allocs := testing.AllocsPerRun(runs, op.run)
		var before, after runtime.MemStats
		runtime.GC()
		op.run() // refill the pool the GC emptied
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op.run()
		}
		runtime.ReadMemStats(&after)
		perCall := int(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocs, %d B per call, %d B output", op.name, allocs, perCall, op.out)
		if allocs > 1 {
			t.Errorf("%s: %.0f allocations per call, want 1", op.name, allocs)
		}
		// The slack covers the output's size-class rounding (8 KB pages for
		// large objects) and stays below a reader's 32 KB window.
		if perCall > op.out+16<<10 {
			t.Errorf("%s: %d B per call, want ≤ %d B output + 16 KB", op.name, perCall, op.out)
		}
	}
}

// TestFlatePoolConcurrent shares the pooled Flate writers and readers
// between goroutines: every encode must match the serial bytes and decode
// back to its own payload.
func TestFlatePoolConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	payloads := make([][]byte, 8)
	want := make([][]byte, len(payloads))
	for i := range payloads {
		payloads[i] = make([]byte, 5000+1000*i)
		for j := range payloads[i] {
			payloads[i][j] = byte(rng.Intn(4 + 8*i))
		}
		want[i] = Encode(Flate{Level: 6}, payloads[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(payloads)
				blob := Encode(Flate{Level: 6}, payloads[i])
				if !bytes.Equal(blob, want[i]) {
					t.Errorf("payload %d: concurrent encode differs from serial", i)
					return
				}
				got, err := Decode(blob)
				if err != nil || !bytes.Equal(got, payloads[i]) {
					t.Errorf("payload %d: concurrent decode failed: %v", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
