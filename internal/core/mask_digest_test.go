package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/predict"
)

// maskDigestInput builds a deterministic periodic field over dims (period
// 12 along dim 0) with either a horizontal mask-map (land blocks and
// scattered cells) or a per-point bitmap. Masked points hold fill.
func maskDigestInput(dims []int, point bool, fill float32) ([]float32, validity) {
	rng := rand.New(rand.NewSource(int64(grid.Volume(dims))))
	nLat, nLon := dims[len(dims)-2], dims[len(dims)-1]
	plane := nLat * nLon
	data := make([]float32, grid.Volume(dims))
	for i := range data {
		t, p := i/plane, i%plane
		lat, lon := p/nLon, p%nLon
		data[i] = float32(3*math.Sin(2*math.Pi*float64(t)/12) +
			0.2*float64(lat) - 0.1*float64(lon) + 0.05*rng.NormFloat64())
	}
	var v validity
	if point {
		v.pts = make([]bool, len(data))
		for i := range v.pts {
			v.pts[i] = rng.Intn(4) != 0
		}
	} else {
		regions := make([]int32, plane)
		for p := range regions {
			lat, lon := p/nLon, p%nLon
			land := (lat < nLat/3 && lon > nLon/2) || (lat*7+lon*3)%11 == 0
			if !land {
				regions[p] = 1
			}
		}
		v.hm = mask.New(nLat, nLon, regions)
	}
	valid, err := v.bitmap(dims)
	if err != nil {
		panic(err)
	}
	for i, ok := range valid {
		if !ok {
			data[i] = fill
		}
	}
	return data, v
}

type maskDigestCase struct {
	name     string
	dims     []int
	point    bool
	periodic bool
	classify bool
	fit      predict.Fitting
	perm     []int
	opt      Options
}

// maskDigestCases spans both mask kinds, periodic and not, classification
// on and off and all six 3-D permutations, plus a Lorenzo pair and a
// sectioned (P > 1) pair.
func maskDigestCases() []maskDigestCase {
	var cs []maskDigestCase
	for _, point := range []bool{false, true} {
		for _, periodic := range []bool{false, true} {
			for _, cls := range []bool{false, true} {
				for _, perm := range grid.Permutations(3) {
					name := fmt.Sprintf("%s-per%t-cls%t-%v",
						map[bool]string{false: "hm", true: "pts"}[point], periodic, cls, perm)
					cs = append(cs, maskDigestCase{name: name, dims: []int{24, 10, 12}, point: point,
						periodic: periodic, classify: cls, fit: predict.Cubic, perm: perm})
				}
			}
		}
	}
	for _, point := range []bool{false, true} {
		kind := map[bool]string{false: "hm", true: "pts"}[point]
		cs = append(cs,
			maskDigestCase{name: kind + "-lorenzo", dims: []int{24, 10, 12}, point: point,
				periodic: true, fit: predict.Lorenzo, perm: []int{1, 2, 0}},
			maskDigestCase{name: kind + "-sectioned", dims: []int{48, 40, 40}, point: point,
				fit: predict.Linear, perm: []int{0, 2, 1},
				opt: Options{Workers: 2, sectionLeadFloor: 4}})
	}
	return cs
}

func (c maskDigestCase) pipeline() Pipeline {
	p := Pipeline{Perm: c.perm, Fusion: grid.NoFusion(3), Fitting: c.fit,
		Classify: c.classify, UseMask: true}
	if c.periodic {
		p.Period = 12
	}
	return p
}

func float32Digest(v []float32) string {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMaskedPipelineDigests pins, by SHA-256, the blob and the decoded
// output of masked pipelines, hashed before the engines stopped writing
// fill values and core took over building the permuted validity and the
// fill. Each blob is also required to be identical under the fused and the
// materialized layouts, and the decode under both layouts (and the
// compressor's own reconstruction) to match bit for bit.
func TestMaskedPipelineDigests(t *testing.T) {
	const fill float32 = 9.96921e36
	for _, c := range maskDigestCases() {
		t.Run(c.name, func(t *testing.T) {
			data, v := maskDigestInput(c.dims, c.point, fill)
			eb := 0.01 * 6
			p := c.pipeline()
			blob, recon, err := compressGeneral(data, c.dims, v, eb, p, fill, c.opt, true)
			if err != nil {
				t.Fatal(err)
			}
			mopt := c.opt
			mopt.MaterializedPermute = true
			mblob, mrecon, err := compressGeneral(data, c.dims, v, eb, p, fill, mopt, true)
			if err != nil {
				t.Fatal(err)
			}
			if string(mblob) != string(blob) {
				t.Fatal("materialized blob differs from fused blob")
			}
			nblob, nrecon, err := compressGeneral(data, c.dims, v, eb, p, fill, c.opt, false)
			if err != nil {
				t.Fatal(err)
			}
			if string(nblob) != string(blob) || nrecon != nil {
				t.Fatal("the blob-only path differs from the reconstructing one")
			}
			if !bitsEqual(mrecon, recon) {
				t.Fatal("materialized reconstruction differs from fused")
			}
			out, _, err := DecompressWithOptions(blob, DecompressOptions{})
			if err != nil {
				t.Fatal(err)
			}
			mout, _, err := DecompressWithOptions(blob, DecompressOptions{MaterializedPermute: true, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(out, recon) || !bitsEqual(mout, recon) {
				t.Fatal("decode differs from the compressor's reconstruction")
			}
			s := sha256.Sum256(blob)
			got := hex.EncodeToString(s[:]) + " " + float32Digest(out)
			if want := maskDigests[c.name]; got != want {
				t.Errorf("digests %q, want %q", got, want)
			}
		})
	}
}

// maskDigests holds "blob-sha256 output-sha256" per maskDigestCases name.
var maskDigests = map[string]string{
	"hm-perfalse-clsfalse-[0 1 2]":  "fc1297cda88f0c14dc561e5b8be3f1f70b8959e18d647747f187375aa4d6751a c4523f1ab34fbc1ad3519e522e8365c609e3ef8b318ae03b93a818f039a1f5b3",
	"hm-perfalse-clsfalse-[0 2 1]":  "d28dc07d6632ad027cfeb27458a1cf255c833fa758a558dcadb6a79294ed6abc 7420bf3ed45ff7838768c2b2a69e4f08484f434afc294cec561b29d2919345cd",
	"hm-perfalse-clsfalse-[1 0 2]":  "e1146f763429fb07b8bdc40a54aeb57e4d25f6d0274fc4bada044fbc2a99603a eff94aec40b7685898cf109176d1d99997e9fefa3d84e58899e2e7ad358e63a2",
	"hm-perfalse-clsfalse-[1 2 0]":  "c6589f5145766e9afa2d74f66a41cfd7035a5f52c5bf3b11dc2061beab53b137 c9de71a660f98d9fdb817ad71d43a67af4239af044a51f68bd983e6e5e377d22",
	"hm-perfalse-clsfalse-[2 0 1]":  "2dd5e8dd622e09374c8fd6dd198dadde47edd7b41e6c9405495dbc6442fedf6a 1bc58287442e0ba1bc556cbb146e3b43965cc739665348a7eda49f08e7c1b588",
	"hm-perfalse-clsfalse-[2 1 0]":  "daf57df12958f99ef04437a6ebc1f36d7d864d1a142a50e845aec1a6322b690b 028086c856ddd0f5b1937d9c17a5f73781744e83b8cd2c8ac9c4be89dce2fe43",
	"hm-perfalse-clstrue-[0 1 2]":   "61bd9735256d9823101cd0cb62935dc2963df4631a814f224d7acfb78e6e90aa c4523f1ab34fbc1ad3519e522e8365c609e3ef8b318ae03b93a818f039a1f5b3",
	"hm-perfalse-clstrue-[0 2 1]":   "ac2768b1c2db16b764aa06dcd6c858c63ad4c54d886944cfe7fbcd76845d604f 7420bf3ed45ff7838768c2b2a69e4f08484f434afc294cec561b29d2919345cd",
	"hm-perfalse-clstrue-[1 0 2]":   "305fdfbaf756420ca58cbecb9c12609d25c155d737210cdddc98f09af8dfaee6 eff94aec40b7685898cf109176d1d99997e9fefa3d84e58899e2e7ad358e63a2",
	"hm-perfalse-clstrue-[1 2 0]":   "07955ddff219fbbe8b5964ec29b7c961fe955e529c57ecd413803a5361074a34 c9de71a660f98d9fdb817ad71d43a67af4239af044a51f68bd983e6e5e377d22",
	"hm-perfalse-clstrue-[2 0 1]":   "77bd3a81b7062f73bb7bbed4bb771b025b9684f74f996142c2964d8848e9e1d2 1bc58287442e0ba1bc556cbb146e3b43965cc739665348a7eda49f08e7c1b588",
	"hm-perfalse-clstrue-[2 1 0]":   "ec3620e93fdc7895de1e2daad8530a7e338d8e99dc30585ff1ce605e16d3bafb 028086c856ddd0f5b1937d9c17a5f73781744e83b8cd2c8ac9c4be89dce2fe43",
	"hm-pertrue-clsfalse-[0 1 2]":   "3fd49efecbc72b0570e802573d44aab737a85329cf890336ecf183d126b2a5a8 090ad1a0a0400cf7502af23120930e88567e15a6d5e72f5fec536294472beefb",
	"hm-pertrue-clsfalse-[0 2 1]":   "99c45c5b271d1b9fb21ffab4a77d16003d54ce80525107297614859f7fa03620 e89eca9e28962dd1408e213b22f6eb1ecb59da2b6b52676fb87caf014aae69bd",
	"hm-pertrue-clsfalse-[1 0 2]":   "3c6649de0ccbf0d7d34b3ee12f9c627d70467ed6a99c442fac0e9fe3cf06398a 9fea1acfd0028b7c78cf30528e3b455871262ff84ad3063041af9705b08fbb80",
	"hm-pertrue-clsfalse-[1 2 0]":   "340fe3a71c31726ea76cdf2af376b452613a22fab8ee7dbe61c35304dd572171 5efdfcea6c6e291e1838ee69cc3b04de0d7510156f57df306a139c6ef7c070bb",
	"hm-pertrue-clsfalse-[2 0 1]":   "c5b3a19a825bb84f2d5be868b379342beaf573cc255895a61a00048ff97b0099 4277f36f8879c1094b62c9d48cecbd9d485d2d2f4c4926af06f664c7d8aaf505",
	"hm-pertrue-clsfalse-[2 1 0]":   "d493c9fe02829e74572be5d71f4c87b4b6051acac0a299cb79681cdf67230674 17cd3164e8d4f576f8794ced8b451f2b70a72961f1dc3b23a26639d7aacde0b9",
	"hm-pertrue-clstrue-[0 1 2]":    "591cb6e6e9ba9c596d8a5a04ff8bd6637697db5e7e5f8b42447a3de0cacdc1e5 090ad1a0a0400cf7502af23120930e88567e15a6d5e72f5fec536294472beefb",
	"hm-pertrue-clstrue-[0 2 1]":    "0978c9750eca3e6cab8c317d6de9f1230b12b9b93877e0ea6beac4cb0ccf3b04 e89eca9e28962dd1408e213b22f6eb1ecb59da2b6b52676fb87caf014aae69bd",
	"hm-pertrue-clstrue-[1 0 2]":    "072f712a7793962c9b0a834e8766a0070e29459866ecd7a3508c46265d7efe26 9fea1acfd0028b7c78cf30528e3b455871262ff84ad3063041af9705b08fbb80",
	"hm-pertrue-clstrue-[1 2 0]":    "84279a436688ecbb741598c62c801e2e5caf7309178077de555fe71a459c7e8c 5efdfcea6c6e291e1838ee69cc3b04de0d7510156f57df306a139c6ef7c070bb",
	"hm-pertrue-clstrue-[2 0 1]":    "6622b2b327dcaaed94b4d57b3999410138b1227f4ac3b352cd040394365be151 4277f36f8879c1094b62c9d48cecbd9d485d2d2f4c4926af06f664c7d8aaf505",
	"hm-pertrue-clstrue-[2 1 0]":    "cd66858bddf29723972408ea51395a0f80c1c821d7211d2362b71dfe43334b38 17cd3164e8d4f576f8794ced8b451f2b70a72961f1dc3b23a26639d7aacde0b9",
	"pts-perfalse-clsfalse-[0 1 2]": "036c5c1118c3ee8be1a74d5ff3eb34a3d3159e5785e2e62c8f2a4aa7f17a086c 5749830b6062d0a8145e13db1f3a05e2860b1797f7be07f740420ef0443c964a",
	"pts-perfalse-clsfalse-[0 2 1]": "6498c3310c4cb15d84874e359005c22f6903b9d7cc47f2fa236bef4afa26eb41 680a3e07a7280b5dd4c2a99463b50c48e44a5251256e5c26888416e96165e3c6",
	"pts-perfalse-clsfalse-[1 0 2]": "6cc2af1b70aacd7e6b680bf5efa078602a18291617ce9f5831d9b2ab93a45097 c98bafb4beb5f8b1f43f73f65ef8f975e1d2bcfde8880775d46b7b1ffff3683f",
	"pts-perfalse-clsfalse-[1 2 0]": "58e7fccd3f58d35bd5d3b42c3ae5d92decc9051a0d84954cfd6f25420033790b 2b53ce239d1bdd70466a288b5a4b20a41e6c54a58ff56619058587662c61c672",
	"pts-perfalse-clsfalse-[2 0 1]": "06d840ad6402cf0be63aa5216a978fcc6299769c5ff3ad8660d941f6bf515f6d f314ae3276019184b0a82e9eef9d82ba5102da8aa90165db6717ccc6a73f2b55",
	"pts-perfalse-clsfalse-[2 1 0]": "5750b05f5622dd616227f231f8e0ca6d8b378d7b272214e2f71e93a2d13f328c aad8ab0ea333e22b87a6b41b578af61ce1e66fe4e6631b2fe4554233e7d1bc56",
	"pts-perfalse-clstrue-[0 1 2]":  "7540b02d49a46fc3d11c53246f669097ea9c1b832c078722da3d7e09b9d5db7c 5749830b6062d0a8145e13db1f3a05e2860b1797f7be07f740420ef0443c964a",
	"pts-perfalse-clstrue-[0 2 1]":  "b390daf1271719b550a7e995419ed9752f971bdaa9821abdef649793e56f81cf 680a3e07a7280b5dd4c2a99463b50c48e44a5251256e5c26888416e96165e3c6",
	"pts-perfalse-clstrue-[1 0 2]":  "7f1c86fc339595755044867849262294d021ecdff7fc92d0212ac07fec671a99 c98bafb4beb5f8b1f43f73f65ef8f975e1d2bcfde8880775d46b7b1ffff3683f",
	"pts-perfalse-clstrue-[1 2 0]":  "721557113eae606217e0762796f576d86adec19f0b80b33307dce2fa23ac336e 2b53ce239d1bdd70466a288b5a4b20a41e6c54a58ff56619058587662c61c672",
	"pts-perfalse-clstrue-[2 0 1]":  "1d4730fd8ea69d3ceae6dfd740548821854764e684cc6c8e6bfafdc8e1585b3c f314ae3276019184b0a82e9eef9d82ba5102da8aa90165db6717ccc6a73f2b55",
	"pts-perfalse-clstrue-[2 1 0]":  "f2cfc93c5cf5e16ef2317de17884b00fd1f2f79baf24d707f24ac0d5343dab22 aad8ab0ea333e22b87a6b41b578af61ce1e66fe4e6631b2fe4554233e7d1bc56",
	"pts-pertrue-clsfalse-[0 1 2]":  "496c78975bc03806b04fcdb2a5abe455172adc61fbe99f88195a3a669dc7e399 4e9283791840080442df955821d06e0b057d77413bc5f20d0f9682a9e0e4263f",
	"pts-pertrue-clsfalse-[0 2 1]":  "db106d2b4680a4f7d1f2d1d9e0285ffa163b07cba3e6cd50713a01154389c108 239dfeccca83744dd868b307db07ac3bea166abd1fb7a5c0369ec213a89e1d1d",
	"pts-pertrue-clsfalse-[1 0 2]":  "dbca79ad844144716a9055d0083314cce3c45f1425a776ac86352fcd7b4389fc 6688d360b442cc79e66e89bf2fa2dc0f4d71934c36aff57577f106d9691b866a",
	"pts-pertrue-clsfalse-[1 2 0]":  "d4b59613561f3001d2a291e21a9950588890e9e33fae49b2f6046b650e7b62d0 b3865931f73245ecee11f98ed80d5f08b5fa9f59d1a12b82cdee452a0acb2c6d",
	"pts-pertrue-clsfalse-[2 0 1]":  "4b6373f5cb69c512fc34cb9580d843ad632ccd0ff68f98c2491a5ad40effd000 dbe643b98e2f276e8293b4f3df2556860a5f01111b1aeb570368c9743aaff43b",
	"pts-pertrue-clsfalse-[2 1 0]":  "966cba2f1953330d530208e105a6978a23d030f5f6ec9be1ba6d0a959b7e67e5 828e21852bbeadb515432b2546f909697017a4affe4d0dc9653f214cba9e1dcc",
	"pts-pertrue-clstrue-[0 1 2]":   "448a0f32d6caa8698735fcce4ee54938ffb895769f11eae2b76488bbf919ac3b 4e9283791840080442df955821d06e0b057d77413bc5f20d0f9682a9e0e4263f",
	"pts-pertrue-clstrue-[0 2 1]":   "41eaa07df9a70cf7cb724b864db1d18191db18f971c4d4a40b1e2a20daffabd2 239dfeccca83744dd868b307db07ac3bea166abd1fb7a5c0369ec213a89e1d1d",
	"pts-pertrue-clstrue-[1 0 2]":   "a472eb7133aa54fc4cee171a5c2625a08b336d3b8c74cbd4328bfe31fe4b85c5 6688d360b442cc79e66e89bf2fa2dc0f4d71934c36aff57577f106d9691b866a",
	"pts-pertrue-clstrue-[1 2 0]":   "5fb98b03711561cef46a4654bbf0f8489b041e891acf54fd0e9559502708a085 b3865931f73245ecee11f98ed80d5f08b5fa9f59d1a12b82cdee452a0acb2c6d",
	"pts-pertrue-clstrue-[2 0 1]":   "46886c9caffbf5781bb1908e7dc36153c42442df6623ea652e95d40415e4ae07 dbe643b98e2f276e8293b4f3df2556860a5f01111b1aeb570368c9743aaff43b",
	"pts-pertrue-clstrue-[2 1 0]":   "9bea67ce5de2340ddc974ee2d134d5a5615f265fca1f6e89e3cc47df30e38729 828e21852bbeadb515432b2546f909697017a4affe4d0dc9653f214cba9e1dcc",
	"hm-lorenzo":                    "8ba4bca3773dfe273245492b009005f93ae67a4a98dbfd623bdba6efb0dca92b ba840acd47a06fba2a2edca08e54a9b9a35bca058f3ecee29b37eac2d4dcba7f",
	"hm-sectioned":                  "a2379ef644d818b2ad239f5f2226233d7d5ecccb8403ec137aeb0c0df5978e51 2c57f92ed63e4bdd3df182c8b9d05c4b4aaa3cf77bc6080507813b2f240a93eb",
	"pts-lorenzo":                   "7b8da7d593878a3e244c080499d6fa492cfdaa83882e4ee792f7ab979484fa7e 60c5cf3fe6f73eeba93b91d824cf1cca0ad5b190228892d14cadd151a26d0c9b",
	"pts-sectioned":                 "e64c79a837b7153b38271d89076fb7a0ba4646bdf74bc994d4524a2e1238ebbc 892701e95f5109a1a7862d66883150e93e04242b932f3c6e6dc6b84e872d81ff",
}

// TestFillBitExact checks that every masked point of the decoded output
// and of the compressor's reconstruction holds the header's fill value bit
// for bit — a NaN with a payload and −0 included — for both mask kinds,
// periodic and not, under the fused and the materialized layouts.
func TestFillBitExact(t *testing.T) {
	fills := map[string]float32{
		"nan-payload": math.Float32frombits(0x7fc0_1234),
		"neg-zero":    float32(math.Copysign(0, -1)),
		"1e35":        1e35,
	}
	for fname, fill := range fills {
		for _, point := range []bool{false, true} {
			for _, periodic := range []bool{false, true} {
				for _, mat := range []bool{false, true} {
					name := fmt.Sprintf("%s-pts%t-per%t-mat%t", fname, point, periodic, mat)
					t.Run(name, func(t *testing.T) {
						dims := []int{24, 10, 12}
						data, v := maskDigestInput(dims, point, fill)
						valid, err := v.bitmap(dims)
						if err != nil {
							t.Fatal(err)
						}
						c := maskDigestCase{perm: []int{2, 0, 1}, fit: predict.Cubic, periodic: periodic}
						opt := Options{MaterializedPermute: mat}
						blob, recon, err := compressGeneral(data, dims, v, 0.06, c.pipeline(), fill, opt, true)
						if err != nil {
							t.Fatal(err)
						}
						out, _, err := DecompressWithOptions(blob, DecompressOptions{MaterializedPermute: mat})
						if err != nil {
							t.Fatal(err)
						}
						want := math.Float32bits(fill)
						for i, ok := range valid {
							if ok {
								continue
							}
							if got := math.Float32bits(out[i]); got != want {
								t.Fatalf("decoded masked point %d holds %#08x, want %#08x", i, got, want)
							}
							if got := math.Float32bits(recon[i]); got != want {
								t.Fatalf("reconstructed masked point %d holds %#08x, want %#08x", i, got, want)
							}
						}
					})
				}
			}
		}
	}
}
