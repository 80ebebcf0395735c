package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderCollects(t *testing.T) {
	var r Recorder
	sp := Begin(&r, "predict")
	time.Sleep(time.Millisecond)
	sp.EndFull(100, 40, 25, []KV{{"entropy_bits", 2.5}})
	Begin(&r, "lossless").EndBytes(40, 20)
	got := r.Stages()
	if len(got) != 2 {
		t.Fatalf("stages %d", len(got))
	}
	if got[0].Name != "predict" || got[0].Duration <= 0 || got[0].Items != 25 {
		t.Fatalf("bad record %+v", got[0])
	}
	if got[1].InBytes != 40 || got[1].OutBytes != 20 {
		t.Fatalf("bad record %+v", got[1])
	}
	r.Reset()
	if len(r.Stages()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestSpanNilCollectorAllocs(t *testing.T) {
	// The no-collector hot path must not allocate or read the clock.
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Begin(nil, "predict")
		sp.Stop()
		sp.EndFull(1, 2, 3, nil)
		Begin(nil, "x").End()
		Begin(Prefixed(nil, "chunk[0]"), "y").EndBytes(4, 5)
	})
	if allocs != 0 {
		t.Fatalf("nil-collector span allocated %v times per run", allocs)
	}
}

// TestStopExcludesLaterWork: work done between Stop and EndFull — here a
// sleep standing in for computing the annotations — is not part of the
// recorded duration, while the annotations still land on the record.
func TestStopExcludesLaterWork(t *testing.T) {
	var r Recorder
	t0 := time.Now()
	sp := Begin(&r, "predict")
	sp.Stop()
	bound := time.Since(t0) // the span's whole life so far
	sp.Stop()               // a second Stop keeps the first duration
	time.Sleep(20 * time.Millisecond)
	sp.EndFull(1, 2, 3, []KV{{"entropy_bits", 1.5}})
	got := r.Stages()
	if len(got) != 1 {
		t.Fatalf("stages %d", len(got))
	}
	if got[0].Duration > bound {
		t.Fatalf("stopped span recorded %v, more than the %v it ran before Stop", got[0].Duration, bound)
	}
	if got[0].Items != 3 || len(got[0].Extra) != 1 || got[0].Extra[0].Value != 1.5 {
		t.Fatalf("bad record %+v", got[0])
	}
	// Without Stop the same sleep is counted.
	sp = Begin(&r, "entropy")
	time.Sleep(20 * time.Millisecond)
	sp.End()
	if d := r.Stages()[1].Duration; d < 20*time.Millisecond {
		t.Fatalf("unstopped span recorded %v, less than its 20ms of work", d)
	}
}

func TestPrefixed(t *testing.T) {
	var r Recorder
	c := Prefixed(&r, "template")
	Begin(c, "predict").End()
	Begin(Prefixed(c, "inner"), "entropy").End()
	got := r.Stages()
	if got[0].Name != "template/predict" {
		t.Fatalf("name %q", got[0].Name)
	}
	if got[1].Name != "template/inner/entropy" {
		t.Fatalf("name %q", got[1].Name)
	}
}

func TestAggregateMergesByBaseName(t *testing.T) {
	stages := []Stage{
		{Name: "chunk[0]/predict", Duration: 3 * time.Millisecond, InBytes: 10, Items: 5},
		{Name: "chunk[1]/predict", Duration: 5 * time.Millisecond, InBytes: 20, Items: 7},
		{Name: "chunk[0]/entropy", Duration: time.Millisecond, OutBytes: 4},
	}
	agg := Aggregate(stages)
	if len(agg) != 2 {
		t.Fatalf("aggregated %d", len(agg))
	}
	if agg[0].Name != "predict" || agg[0].Duration != 8*time.Millisecond ||
		agg[0].InBytes != 30 || agg[0].Items != 12 {
		t.Fatalf("bad aggregate %+v", agg[0])
	}
}

func TestTableRendering(t *testing.T) {
	stages := []Stage{
		{Name: "predict", Duration: 2 * time.Millisecond, InBytes: 4096, Items: 1024,
			Extra: []KV{{"literals", 3}}},
		{Name: "total", Duration: 3 * time.Millisecond, OutBytes: 900},
	}
	s := Table(stages)
	for _, want := range []string{"predict", "total", "literals=3", "4.0KiB"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	if Table(nil) == "" {
		t.Fatal("empty table rendering")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				Begin(&r, "s").End()
			}
		}()
	}
	wg.Wait()
	if len(r.Stages()) != 800 {
		t.Fatalf("lost records: %d", len(r.Stages()))
	}
}

// TestRecorderScratchReuseRace is the regression for the Extra-aliasing data
// race: a producer that recycles its KV scratch buffer across records (the
// per-worker trace of a long-lived server) while another goroutine reads
// Stages() snapshots. Before Record copied Extra, the snapshot aliased the
// producer's live scratch and -race flagged the write/read pair; with the
// copy the two sides never share memory.
func TestRecorderScratchReuseRace(t *testing.T) {
	var r Recorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		scratch := make([]KV, 1)
		for i := 0; i < 500; i++ {
			scratch[0] = KV{Key: "v", Value: float64(i)}
			r.Record(Stage{Name: "s", Extra: scratch})
		}
	}()
	sum := 0.0
	for i := 0; i < 200; i++ {
		for _, s := range r.Stages() {
			for _, kv := range s.Extra {
				sum += kv.Value
			}
		}
	}
	<-done
	// Every snapshot must see the value recorded, not a later scratch write.
	for i, s := range r.Stages() {
		if len(s.Extra) != 1 || s.Extra[0].Value != float64(i) {
			t.Fatalf("record %d carries %+v, want value %d", i, s.Extra, i)
		}
	}
	_ = sum
}

func TestAggregatorMerges(t *testing.T) {
	var a Aggregator
	a.Record(Stage{Name: "chunk[0]/predict", Duration: 3 * time.Millisecond, InBytes: 10, Items: 4})
	a.Record(Stage{Name: "chunk[1]/predict", Duration: 5 * time.Millisecond, InBytes: 20, Items: 8})
	a.Record(Stage{Name: "entropy", Duration: 2 * time.Millisecond, OutBytes: 7})
	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 rows, got %d: %+v", len(snap), snap)
	}
	if snap[0].Name != "predict" || snap[0].Duration != 8*time.Millisecond ||
		snap[0].InBytes != 30 || snap[0].Items != 12 {
		t.Fatalf("bad merged row %+v", snap[0])
	}
	if snap[0].Extra[0].Key != "records" || snap[0].Extra[0].Value != 2 {
		t.Fatalf("bad records annotation %+v", snap[0].Extra)
	}
	if a.Count() != 3 {
		t.Fatalf("count = %d, want 3", a.Count())
	}
	a.Reset()
	if len(a.Snapshot()) != 0 || a.Count() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestAggregatorBounded(t *testing.T) {
	var a Aggregator
	for i := 0; i < 3*maxAggStages; i++ {
		a.Record(Stage{Name: fmt.Sprintf("stage-%d", i), Duration: time.Microsecond})
	}
	snap := a.Snapshot()
	if len(snap) > maxAggStages+1 {
		t.Fatalf("aggregator grew past cap: %d rows", len(snap))
	}
	var overflow int64
	for _, s := range snap {
		if s.Name == aggOverflow {
			overflow = int64(s.Extra[0].Value)
		}
	}
	if overflow != 2*maxAggStages {
		t.Fatalf("overflow row folded %d records, want %d", overflow, 2*maxAggStages)
	}
	if a.Count() != 3*maxAggStages {
		t.Fatalf("count = %d", a.Count())
	}
}

func TestAggregatorConcurrent(t *testing.T) {
	var a Aggregator
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				Begin(&a, "chunk[1]/s").EndFull(1, 2, 3, nil)
				_ = a.Snapshot()
			}
		}()
	}
	wg.Wait()
	if a.Count() != 1600 {
		t.Fatalf("lost records: %d", a.Count())
	}
	snap := a.Snapshot()
	if len(snap) != 1 || snap[0].InBytes != 1600 || snap[0].Items != 4800 {
		t.Fatalf("bad concurrent merge %+v", snap)
	}
}
