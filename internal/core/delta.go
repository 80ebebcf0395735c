package core

import (
	"encoding/binary"
	"fmt"

	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/quant"
	"cliz/internal/trace"
)

// Delta is the temporal predictor of a stream's delta frames: each valid
// point of a frame is quantized against the same point of the previous
// frame's reconstruction, and the bins and literals go through the residual
// coder a unit blob's unclassified tail uses (encodeBins, encodeLiterals).
// A delta payload is
//
//	uvarint length | bins section | uvarint length | literals section
//
// A stream's writer and reader each build one Delta and reuse its bins
// buffer for every frame. A Delta is not safe for concurrent use.
type Delta struct {
	v      validity
	valid  []bool // v's per-point bitmap; nil when unmasked
	nValid int
	q      quant.Quantizer
	fill   float32
	// bins holds the valid points' bins, in order.
	bins []int32
	lits []float32
}

// NewDelta returns the delta coder for frames of dims under the absolute
// error bound eb. m, when non-nil, masks the frame's trailing two dims: its
// masked points are not coded and hold fill in every reconstruction. radius
// 0 selects quant.DefaultRadius.
func NewDelta(dims []int, m *mask.Map, eb float64, radius int32, fill float32) (*Delta, error) {
	if radius == 0 {
		radius = quant.DefaultRadius
	}
	v := validity{hm: m}
	valid, err := v.bitmap(dims)
	if err != nil {
		return nil, err
	}
	return &Delta{
		v:      v,
		valid:  valid,
		nValid: validCount(valid, grid.Volume(dims)),
		q:      quant.New(eb, radius),
		fill:   fill,
	}, nil
}

// ValidCount returns the number of coded (valid) points per frame.
func (d *Delta) ValidCount() int { return d.nValid }

// Radius returns the quantizer radius.
func (d *Delta) Radius() int32 { return d.q.Radius() }

// validBins returns the bins buffer, one bin per valid point.
func (d *Delta) validBins() []int32 {
	if len(d.bins) != d.nValid {
		d.bins = make([]int32, d.nValid)
	}
	return d.bins
}

// Encode quantizes frame against prev, the previous frame's reconstruction,
// writes the reconstruction the decoder will produce to recon, and returns
// the payload and its literal count. opt supplies the entropy kind, the
// lossless backend, the shard count (Workers), the trace and the
// interrupt, which is polled every 64 Ki points.
func (d *Delta) Encode(frame, prev, recon []float32, opt Options) ([]byte, int, error) {
	sp := trace.Begin(opt.Trace, "delta-predict")
	q, valid, bins, lits := d.q, d.valid, d.validBins(), d.lits[:0]
	n := 0
	for i, orig := range frame {
		// One frame can be hundreds of MiB, far past the frame-boundary
		// poll of the stream writer.
		if i&0xffff == 0 {
			if err := interrupted(opt.Interrupt); err != nil {
				return nil, 0, err
			}
		}
		if valid != nil && !valid[i] {
			continue
		}
		bin, rv, exact := q.Quantize(float64(prev[i]), float64(orig))
		bins[n] = bin
		n++
		if exact {
			lits = append(lits, orig)
			recon[i] = orig
			continue
		}
		recon[i] = float32(rv)
	}
	d.v.writeFill(recon, d.fill)
	d.lits = lits
	sp.EndFull(int64(len(frame))*4, 0, int64(n), nil)
	binsSec := encodeBins(bins, opt)
	litSec := encodeLiterals(lits, opt)
	payload := make([]byte, 0, len(binsSec)+len(litSec)+2*binary.MaxVarintLen64)
	payload = appendSection(appendSection(payload, binsSec), litSec)
	return payload, len(lits), nil
}

// Decode reconstructs a delta frame from payload against prev, the previous
// frame's reconstruction, into out. Malformed payloads fail with an error
// wrapping ErrCorrupt: a bins block that does not declare exactly the valid
// count, a bin outside the radius, too few or too many literals, or bytes
// after the literals section. The interrupt is polled every 64 Ki points.
func (d *Delta) Decode(payload []byte, prev, out []float32, opt DecompressOptions) error {
	c := opt.Trace
	pos := 0
	binsSec, err := readSection(payload, &pos)
	if err != nil {
		return fmt.Errorf("core: delta bins section: %w", ErrCorrupt)
	}
	litSec, err := readSection(payload, &pos)
	if err != nil {
		return fmt.Errorf("core: delta literals section: %w", ErrCorrupt)
	}
	if pos != len(payload) {
		return fmt.Errorf("core: %d trailing bytes in delta payload: %w", len(payload)-pos, ErrCorrupt)
	}
	sp := trace.Begin(c, "entropy-decode")
	bins := d.validBins()
	if err := decodeBins(binsSec, bins, opt.workers()); err != nil {
		return err
	}
	sp.EndFull(int64(len(binsSec)), int64(len(bins))*4, int64(len(bins)), nil)
	sp = trace.Begin(c, "literals-decode")
	lits, err := decodeLiterals(litSec)
	if err != nil {
		return err
	}
	sp.EndFull(int64(len(litSec)), int64(len(lits))*4, int64(len(lits)), nil)

	sp = trace.Begin(c, "delta-reconstruct")
	q, valid := d.q, d.valid
	maxBin := 2*uint32(q.Radius()) - 1
	n, li := 0, 0
	for i := range out {
		// A replayed Seek can decode a keyframe interval's worth of deltas;
		// poll mid-frame so cancellation is not gated on frame boundaries.
		if i&0xffff == 0 {
			if err := interrupted(opt.Interrupt); err != nil {
				return err
			}
		}
		if valid != nil && !valid[i] {
			continue
		}
		bin := bins[n]
		n++
		if uint32(bin) > maxBin {
			return fmt.Errorf("core: delta bin %d outside radius %d: %w", uint32(bin), q.Radius(), ErrCorrupt)
		}
		if bin == 0 {
			if li == len(lits) {
				return fmt.Errorf("core: delta payload short of literals: %w", ErrCorrupt)
			}
			out[i] = lits[li]
			li++
			continue
		}
		out[i] = float32(q.Recover(float64(prev[i]), bin, 0))
	}
	if li != len(lits) {
		return fmt.Errorf("core: %d delta literals left over: %w", len(lits)-li, ErrCorrupt)
	}
	d.v.writeFill(out, d.fill)
	sp.EndFull(int64(len(bins))*4, int64(len(out))*4, int64(len(out)), nil)
	return nil
}
