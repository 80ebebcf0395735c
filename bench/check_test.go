package main

import (
	"net/http"
	"testing"
)

// TestCheckerCountsFaults mutates correct outputs the way a broken codec or
// server would and asserts each mutation is counted as a failed operation,
// while the unmutated output passes — the checks are not vacuous.
func TestCheckerCountsFaults(t *testing.T) {
	ds, err := cropField(sshField.small, seedRNG(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	eb := ds.AbsErrorBound(1e-2)
	ref := newReference(ds, eb)
	valid := ds.Validity()
	iv, im := -1, -1
	for i, ok := range valid {
		switch {
		case ok && iv < 0:
			iv = i
		case !ok && im < 0:
			im = i
		}
	}
	if iv < 0 || im < 0 {
		t.Fatal("test field needs valid and masked points")
	}
	decode := func(mutate func(recon []float32) []float32) []float32 {
		recon := append([]float32(nil), ds.Data...)
		return mutate(recon)
	}
	fam := &family{name: "f", blob: []byte("a compressed blob"), floats: []byte("floats"), verify: []byte(`{"ok":true}`)}

	cases := []struct {
		name string
		err  error
		fail bool
	}{
		{"exact decode", check(ref, decode(func(r []float32) []float32 { return r })), false},
		{"point at 0.99·eb", check(ref, decode(func(r []float32) []float32 {
			r[iv] = float32(float64(r[iv]) + 0.99*eb)
			return r
		})), false},
		{"point at 1.01·eb", check(ref, decode(func(r []float32) []float32 {
			r[iv] = float32(float64(r[iv]) + 1.01*eb)
			return r
		})), true},
		{"masked point not fill", check(ref, decode(func(r []float32) []float32 {
			r[im] = 0
			return r
		})), true},
		{"short decode", check(ref, decode(func(r []float32) []float32 { return r[:len(r)-1] })), true},
		{"full clizd body", fam.checkResponse(kindCompress, http.StatusOK, fam.blob), false},
		{"truncated clizd body", fam.checkResponse(kindCompress, http.StatusOK, fam.blob[:len(fam.blob)-1]), true},
		{"clizd error status", fam.checkResponse(kindVerify, http.StatusServiceUnavailable, fam.verify), true},
	}
	r := &run{samples: map[string][]float64{}}
	want := 0
	for _, c := range cases {
		before := r.failed
		r.check(c.name, c.err)
		if failed := r.failed > before; failed != c.fail {
			t.Errorf("%s: counted failed=%v, want %v (err %v)", c.name, failed, c.fail, c.err)
		}
		if c.fail {
			want++
		}
	}
	if r.attempted != len(cases) || r.failed != want {
		t.Errorf("attempted %d failed %d, want %d and %d", r.attempted, r.failed, len(cases), want)
	}
}

func check(ref *reference, recon []float32) error {
	_, err := ref.check(recon)
	return err
}
