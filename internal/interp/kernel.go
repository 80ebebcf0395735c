package interp

import (
	"math"

	"cliz/internal/predict"
)

// The fused line kernels. Each one runs n consecutive interior points of a
// target line — x, x+2s, x+4s, ..., every reference inside the line — and
// does a point's whole job in one loop body: predict with the full-validity
// coefficients, then quantize and store the bin or the literal (encode), or
// recover the value and consume a literal for bin 0 (decode). That removes
// the two calls, the three-value return and the direction branch that
// predictPoint + handle pay per point.
//
// The kernels are bit-identical to predictPoint + handle:
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
// On masked grids a point whose target or any reference is masked takes
// predictPoint instead. e.lits and e.litPos are synced around that call.

// encodeCubic is the fused predict→quantize kernel for cubic fitting.
func (e *engine) encodeCubic(idx, idxP, x, n, dimD, stepD, pstepD, stride int) {
	c := predict.CubicCoeffs(15)
	work, bins, lits, valid := e.work, e.bins, e.lits, e.cfg.Valid
	eb, radius := e.q.EB(), e.q.Radius()
	twoEB, lim := 2*eb, float64(radius-1)
	for ; n > 0; n, x, idx, idxP = n-1, x+2*stride, idx+2*stepD, idxP+2*pstepD {
		if valid != nil && !(valid[idx] && valid[idx-3*stepD] && valid[idx-stepD] &&
			valid[idx+stepD] && valid[idx+3*stepD]) {
			e.lits = lits
			e.predictPoint(idx, idxP, x, dimD, stepD, pstepD, stride)
			lits = e.lits
			continue
		}
		pred := c[0]*float64(work[idxP-3*pstepD]) + c[1]*float64(work[idxP-pstepD]) +
			c[2]*float64(work[idxP+pstepD]) + c[3]*float64(work[idxP+3*pstepD])
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
		lits = append(lits, work[idxP])
		bins[idx] = 0
	}
	e.lits = lits
}

// encodeLinear is the fused predict→quantize kernel for linear fitting.
func (e *engine) encodeLinear(idx, idxP, x, n, dimD, stepD, pstepD, stride int) {
	c := predict.LinearCoeffs(3)
	work, bins, lits, valid := e.work, e.bins, e.lits, e.cfg.Valid
	eb, radius := e.q.EB(), e.q.Radius()
	twoEB, lim := 2*eb, float64(radius-1)
	for ; n > 0; n, x, idx, idxP = n-1, x+2*stride, idx+2*stepD, idxP+2*pstepD {
		if valid != nil && !(valid[idx] && valid[idx-stepD] && valid[idx+stepD]) {
			e.lits = lits
			e.predictPoint(idx, idxP, x, dimD, stepD, pstepD, stride)
			lits = e.lits
			continue
		}
		pred := c[0]*float64(work[idxP-pstepD]) + c[1]*float64(work[idxP+pstepD])
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
		lits = append(lits, work[idxP])
		bins[idx] = 0
	}
	e.lits = lits
}

// decodeCubic is the fused predict→recover kernel for cubic fitting. It
// stops at the first literal-stream underrun, leaving e.err set. In verify
// replay it hands each prediction to handle, which checks the finished
// value instead of writing it.
func (e *engine) decodeCubic(idx, idxP, x, n, dimD, stepD, pstepD, stride int) {
	c := predict.CubicCoeffs(15)
	work, bins, lits, valid := e.work, e.bins, e.lits, e.cfg.Valid
	pos, verify := e.litPos, e.verify
	twoEB, radius := 2*e.q.EB(), e.q.Radius()
	for ; n > 0; n, x, idx, idxP = n-1, x+2*stride, idx+2*stepD, idxP+2*pstepD {
		if valid != nil && !(valid[idx] && valid[idx-3*stepD] && valid[idx-stepD] &&
			valid[idx+stepD] && valid[idx+3*stepD]) {
			e.litPos = pos
			e.predictPoint(idx, idxP, x, dimD, stepD, pstepD, stride)
			pos = e.litPos
			if e.err != nil {
				return
			}
			continue
		}
		pred := c[0]*float64(work[idxP-3*pstepD]) + c[1]*float64(work[idxP-pstepD]) +
			c[2]*float64(work[idxP+pstepD]) + c[3]*float64(work[idxP+3*pstepD])
		if verify {
			e.litPos = pos
			e.handle(idx, idxP, pred)
			pos = e.litPos
			if e.err != nil {
				return
			}
			continue
		}
		bin := bins[idx]
		if bin == 0 {
			if pos >= len(lits) {
				e.litPos = pos
				e.err = errUnderrun(idx)
				return
			}
			// Through float64 as Recover does, so a signalling-NaN literal
			// is quieted exactly as on the general path.
			work[idxP] = float32(float64(lits[pos]))
			pos++
			continue
		}
		work[idxP] = float32(pred + twoEB*float64(bin-radius))
	}
	e.litPos = pos
}

// decodeLinear is the fused predict→recover kernel for linear fitting.
func (e *engine) decodeLinear(idx, idxP, x, n, dimD, stepD, pstepD, stride int) {
	c := predict.LinearCoeffs(3)
	work, bins, lits, valid := e.work, e.bins, e.lits, e.cfg.Valid
	pos, verify := e.litPos, e.verify
	twoEB, radius := 2*e.q.EB(), e.q.Radius()
	for ; n > 0; n, x, idx, idxP = n-1, x+2*stride, idx+2*stepD, idxP+2*pstepD {
		if valid != nil && !(valid[idx] && valid[idx-stepD] && valid[idx+stepD]) {
			e.litPos = pos
			e.predictPoint(idx, idxP, x, dimD, stepD, pstepD, stride)
			pos = e.litPos
			if e.err != nil {
				return
			}
			continue
		}
		pred := c[0]*float64(work[idxP-pstepD]) + c[1]*float64(work[idxP+pstepD])
		if verify {
			e.litPos = pos
			e.handle(idx, idxP, pred)
			pos = e.litPos
			if e.err != nil {
				return
			}
			continue
		}
		bin := bins[idx]
		if bin == 0 {
			if pos >= len(lits) {
				e.litPos = pos
				e.err = errUnderrun(idx)
				return
			}
			work[idxP] = float32(float64(lits[pos]))
			pos++
			continue
		}
		work[idxP] = float32(pred + twoEB*float64(bin-radius))
	}
	e.litPos = pos
}
