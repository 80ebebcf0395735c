package interp

import (
	"math"

	"cliz/internal/predict"
)

// The fused row kernels. Each one runs the n targets of an interior run
// (every reference inside the grid) and does a target's whole job in one
// loop body: predict with the full-validity coefficients, then quantize and
// store the bin (encode) or recover the value (decode), deferring literal
// targets like handle does. That removes the two calls, the three-value
// return and the direction branch that predictPoint + handle pay per point.
//
// A row's targets step by (e.tstep, e.ptstep) — along the pass dimension
// on a line, across it on a row that shares one x — while the references
// sit at ±(e.stepD, e.pstepD) and, for cubic, ±3 of that. The kernels are
// bit-identical to predictPoint + handle:
//
//   - Within one (level, dimension) pass no target is a reference of
//     another target, so every reference a kernel reads is already final.
//   - predict.CubicCoeffs(15) and predict.LinearCoeffs(3) are exactly the
//     coefficients predictPoint looks up when every reference is valid, and
//     the weighted sums are evaluated in the same order.
//   - The quantize and recover steps are quant.Quantize's and quant.Recover's
//     for float32 elements, operation for operation: the divide by 2·eb,
//     math.Round, the int32 round trip (which turns −0 into +0), the float32
//     cast of the reconstruction and the |recon−orig| > eb check. The engine
//     only ever builds narrow quantizers (quant.New).
//
// On masked grids a target that is masked or has a masked reference takes
// predictPoint instead.

// kernel runs n targets of a row, from the one at logical index idx,
// physical index idxP, coordinate x and literal key key, through the fused
// kernel for the fitting and direction.
func (e *engine) kernel(idx, idxP, x, key, n int) {
	switch {
	case e.cfg.Fitting == predict.Cubic && e.decode:
		e.decodeCubic(idx, idxP, x, key, n)
	case e.cfg.Fitting == predict.Cubic:
		e.encodeCubic(idx, idxP, x, key, n)
	case e.decode:
		e.decodeLinear(idx, idxP, x, key, n)
	default:
		e.encodeLinear(idx, idxP, x, key, n)
	}
}

// usable reports whether the target at logical index idx and all its
// references along the pass dimension are valid.
func (e *engine) usable(idx int) bool {
	v, rs := e.cfg.Valid, e.stepD
	return v[idx] && v[idx-rs] && v[idx+rs] &&
		(e.cfg.Fitting != predict.Cubic || v[idx-3*rs] && v[idx+3*rs])
}

// rowPos returns the coordinate x and the literal key of the row target at
// logical index idx, given the kernel's first target at idx0, x0 and key0.
func (e *engine) rowPos(idx0, x0, key0, idx int) (x, key int) {
	j := (idx - idx0) / e.tstep
	return x0 + j*e.xstep, key0 + j*e.kstep
}

// encodeCubic is the fused predict→quantize kernel for cubic fitting.
func (e *engine) encodeCubic(idx0, idxP0, x0, key0, n int) {
	c := predict.CubicCoeffs(15)
	work, bins, valid := e.work, e.bins, e.cfg.Valid
	prs, step, pstep := e.pstepD, e.tstep, e.ptstep
	eb, radius := e.q.EB(), e.q.Radius()
	twoEB, lim := 2*eb, float64(radius-1)
	for idx, idxP, end := idx0, idxP0, idx0+n*step; idx < end; idx, idxP = idx+step, idxP+pstep {
		if valid != nil && !e.usable(idx) {
			x, key := e.rowPos(idx0, x0, key0, idx)
			e.predictPoint(idx, idxP, x, key)
			continue
		}
		pred := c[0]*float64(work[idxP-3*prs]) + c[1]*float64(work[idxP-prs]) +
			c[2]*float64(work[idxP+prs]) + c[3]*float64(work[idxP+3*prs])
		orig := float64(work[idxP])
		qf := (orig - pred) / twoEB
		if qf <= lim && qf >= -lim {
			k := int32(math.Round(qf))
			recon := float32(pred + twoEB*float64(k))
			if !(math.Abs(float64(recon)-orig) > eb) {
				work[idxP] = recon
				bins[idx] = k + radius
				continue
			}
		}
		_, key := e.rowPos(idx0, x0, key0, idx)
		e.deferred = append(e.deferred, deferred{key, idx, idxP})
		bins[idx] = 0
	}
}

// encodeLinear is the fused predict→quantize kernel for linear fitting.
func (e *engine) encodeLinear(idx0, idxP0, x0, key0, n int) {
	c := predict.LinearCoeffs(3)
	work, bins, valid := e.work, e.bins, e.cfg.Valid
	prs, step, pstep := e.pstepD, e.tstep, e.ptstep
	eb, radius := e.q.EB(), e.q.Radius()
	twoEB, lim := 2*eb, float64(radius-1)
	for idx, idxP, end := idx0, idxP0, idx0+n*step; idx < end; idx, idxP = idx+step, idxP+pstep {
		if valid != nil && !e.usable(idx) {
			x, key := e.rowPos(idx0, x0, key0, idx)
			e.predictPoint(idx, idxP, x, key)
			continue
		}
		pred := c[0]*float64(work[idxP-prs]) + c[1]*float64(work[idxP+prs])
		orig := float64(work[idxP])
		qf := (orig - pred) / twoEB
		if qf <= lim && qf >= -lim {
			k := int32(math.Round(qf))
			recon := float32(pred + twoEB*float64(k))
			if !(math.Abs(float64(recon)-orig) > eb) {
				work[idxP] = recon
				bins[idx] = k + radius
				continue
			}
		}
		_, key := e.rowPos(idx0, x0, key0, idx)
		e.deferred = append(e.deferred, deferred{key, idx, idxP})
		bins[idx] = 0
	}
}

// decodeCubic is the fused predict→recover kernel for cubic fitting. It
// stops at the first literal-stream underrun, leaving e.err set. In verify
// replay it checks each finished value instead of writing it.
func (e *engine) decodeCubic(idx0, idxP0, x0, key0, n int) {
	c := predict.CubicCoeffs(15)
	work, bins, valid, verify := e.work, e.bins, e.cfg.Valid, e.verify
	prs, step, pstep := e.pstepD, e.tstep, e.ptstep
	twoEB, radius := 2*e.q.EB(), e.q.Radius()
	for idx, idxP, end := idx0, idxP0, idx0+n*step; idx < end; idx, idxP = idx+step, idxP+pstep {
		if valid != nil && !e.usable(idx) {
			x, key := e.rowPos(idx0, x0, key0, idx)
			if e.predictPoint(idx, idxP, x, key); e.err != nil {
				return
			}
			continue
		}
		pred := c[0]*float64(work[idxP-3*prs]) + c[1]*float64(work[idxP-prs]) +
			c[2]*float64(work[idxP+prs]) + c[3]*float64(work[idxP+3*prs])
		bin := bins[idx]
		switch {
		case bin == 0:
			if _, key := e.rowPos(idx0, x0, key0, idx); !e.deferLit(key, idx, idxP) {
				return
			}
		case verify:
			if e.checkPoint(idx, idxP, pred, bin, 0); e.err != nil {
				return
			}
		default:
			work[idxP] = float32(pred + twoEB*float64(bin-radius))
		}
	}
}

// decodeLinear is the fused predict→recover kernel for linear fitting.
func (e *engine) decodeLinear(idx0, idxP0, x0, key0, n int) {
	c := predict.LinearCoeffs(3)
	work, bins, valid, verify := e.work, e.bins, e.cfg.Valid, e.verify
	prs, step, pstep := e.pstepD, e.tstep, e.ptstep
	twoEB, radius := 2*e.q.EB(), e.q.Radius()
	for idx, idxP, end := idx0, idxP0, idx0+n*step; idx < end; idx, idxP = idx+step, idxP+pstep {
		if valid != nil && !e.usable(idx) {
			x, key := e.rowPos(idx0, x0, key0, idx)
			if e.predictPoint(idx, idxP, x, key); e.err != nil {
				return
			}
			continue
		}
		pred := c[0]*float64(work[idxP-prs]) + c[1]*float64(work[idxP+prs])
		bin := bins[idx]
		switch {
		case bin == 0:
			if _, key := e.rowPos(idx0, x0, key0, idx); !e.deferLit(key, idx, idxP) {
				return
			}
		case verify:
			if e.checkPoint(idx, idxP, pred, bin, 0); e.err != nil {
				return
			}
		default:
			work[idxP] = float32(pred + twoEB*float64(bin-radius))
		}
	}
}
