package core

import (
	"strings"
	"testing"

	"cliz/internal/lossless"
)

func TestInspectUnit(t *testing.T) {
	ds := smallHurricane()
	p := Default(ds)
	p.Classify = true
	blob, err := Compress(ds, ds.AbsErrorBound(1e-2), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "unit" {
		t.Fatalf("kind %q", info.Kind)
	}
	names := map[string]bool{}
	total := 0
	for _, s := range info.Sections {
		names[s.Name] = true
		total += s.Bytes
	}
	for _, want := range []string{"header", "class-meta", "bins-A", "bins-B", "literals"} {
		if !names[want] {
			t.Fatalf("missing section %s in %v", want, names)
		}
	}
	// Section lengths plus per-section varint prefixes account for the blob.
	if total > len(blob) || total < len(blob)/2 {
		t.Fatalf("sections total %d vs blob %d", total, len(blob))
	}
	if !strings.Contains(info.String(), "bins-A") {
		t.Fatal("render missing sections")
	}
}

// TestInspectBackends checks that Inspect reads each lossless stream's
// backend from its id byte: bins and literals follow Options.Backend,
// class-meta is always flate, and the header is not a lossless stream.
func TestInspectBackends(t *testing.T) {
	ds := smallHurricane()
	p := Default(ds)
	p.Classify = true
	for _, be := range []lossless.Codec{lossless.Raw{}, lossless.Flate{Level: 6}, lossless.LZSS{}} {
		t.Run(be.Name(), func(t *testing.T) {
			blob, err := Compress(ds, ds.AbsErrorBound(1e-2), p, Options{Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			info, err := Inspect(blob)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{
				"header": "", "class-meta": "flate",
				"bins-A": be.Name(), "bins-B": be.Name(), "literals": be.Name(),
			}
			for _, s := range info.Sections {
				if s.Backend != want[s.Name] {
					t.Errorf("%s: backend %q, want %q", s.Name, s.Backend, want[s.Name])
				}
			}
			if !strings.Contains(info.String(), "literals") || !strings.Contains(info.String(), "  "+be.Name()) {
				t.Errorf("render lacks the %s backend:\n%s", be.Name(), info)
			}
		})
	}
}

func TestInspectPeriodic(t *testing.T) {
	ds := smallSSH()
	p := Default(ds)
	p.Period = 12
	blob, err := Compress(ds, ds.AbsErrorBound(1e-2), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "periodic" || len(info.Children) != 2 {
		t.Fatalf("kind %q children %d", info.Kind, len(info.Children))
	}
	if info.Children[0].Kind != "template" || info.Children[1].Kind != "residual" {
		t.Fatalf("children %q %q", info.Children[0].Kind, info.Children[1].Kind)
	}
	if info.Children[0].Dims[0] != 12 {
		t.Fatalf("template lead %v", info.Children[0].Dims)
	}
}

func TestInspectChunked(t *testing.T) {
	ds := smallHurricane()
	blob, err := CompressChunked(ds, ds.AbsErrorBound(1e-2), Default(ds), Options{}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "chunked" || len(info.Children) != 3 {
		t.Fatalf("kind %q children %d", info.Kind, len(info.Children))
	}
}

func TestInspectCorrupt(t *testing.T) {
	if _, err := Inspect(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Inspect([]byte("garbage!")); err == nil {
		t.Fatal("garbage accepted")
	}
}
