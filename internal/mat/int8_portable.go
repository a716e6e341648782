package mat

import "math"

// The Go forms of the int8 kernels the candidate top-k runs (package
// doc, "Top-k by candidates"): the quantizer's two steps, the cells of a
// strip or group, both passes over them and the re-score. Every build
// compiles them. They are each kernel's contract written out: every
// fused step goes through fma32, so their outputs are the assembly's bit
// for bit (TestInt8Quant, TestDotPairsMatchesGo, checkEstimates under
// TestInt8FilterHardCases and FuzzInt8FilterConservative), and a build
// without the assembly runs the top-k on them when its tests switch
// useInt8 on (topKForm "Go").

// int8StatsGo is int8Stats' Go form: for each of n rows of d elements
// from x, the largest |x[k]| and the float32 sum of all |x[k]|, both
// taken over sixteen lanes (lane l holds k = l mod 16) and reduced as
// the assembly's halving tree reduces them, to out[2j] and out[2j+1].
func int8StatsGo(x []float32, d, n int, out []float32) {
	for j := range n {
		var most, sum [16]float32
		for k := range (d + 15) &^ 15 {
			var a float32 // past the row, the tail's zeroing load gives 0
			if k < d {
				a = float32(math.Abs(float64(x[j*d+k])))
			}
			if l := k % 16; !(most[l] > a) {
				most[l] = a
			}
			sum[k%16] += a
		}
		for w := 8; w >= 1; w /= 2 {
			for l := range w {
				if !(most[l] > most[l+w]) {
					most[l] = most[l+w]
				}
				sum[l] += sum[l+w]
			}
		}
		out[2*j], out[2*j+1] = most[0], sum[0]
	}
}

// int8QuantGo is int8Quant's Go form: q = x*inv[j] rounded to nearest
// even, NaN and out-of-range products the int32 VCVTPS2DQ gives them
// (math.MinInt32), saturated to a byte, four k to a dword: group g of row
// j, XORed bytewise with flip, at dst[(j/16)*groupStep + (j%16)*rowStep
// + g*stride:], the last group padded with code 0; sums[j] is the int32
// sum of row j's codes before saturating, wrapping as VPADDD does.
func int8QuantGo(x []float32, d, n int, inv []float32, dst []byte, rowStep, groupStep, stride int, flip uint32, sums []int32) {
	for j := range n {
		var sum int32
		at := j/16*groupStep + j%16*rowStep
		for g := range (d + 3) / 4 {
			for b := range 4 {
				var q int32
				if k := 4*g + b; k < d {
					p := x[j*d+k] * inv[j]
					if f := math.RoundToEven(float64(p)); p == p && f >= math.MinInt32 && f <= math.MaxInt32 {
						q = int32(f)
					} else {
						q = math.MinInt32
					}
				}
				sum += q
				dst[at+g*stride+b] = byte(int8(max(-128, min(127, q)))) ^ byte(flip>>(8*b))
			}
		}
		sums[j] = sum
	}
}

// stripCellsGo is the Go form of int8Strip, and of amxCells four rows at
// a time: row t of the four rows of codes from r (offset by +128, ldr
// bytes apart, d4 each) against column c of pairs pairs of panels from
// panel (S layout: column c's k-group g at (c/16)*16*d4 + g*64 +
// (c%16)*4) is corr[c] plus the exact int32 sum of (q_r + 128)·q_s, to
// out[t*ldo+c].
func stripCellsGo(r []byte, ldr int, panel []byte, d4 int, corr []int32, pairs int, out []int32, ldo int) {
	for t := range 4 {
		row := r[t*ldr : t*ldr+d4]
		for c := range 2 * panelCols * pairs {
			col := panel[c/panelCols*panelCols*d4+c%panelCols*4:]
			acc := corr[c]
			for k, q := range row {
				acc += int32(q) * int32(int8(col[k/4*4*panelCols+k%4]))
			}
			out[t*ldo+c] = acc
		}
	}
}

// topKLanesGo is topKLanes' Go form: for each row t in live, every
// admitted cell's lower estimate
//
//	lo = s_i*(s_j*(cell - 2D) - b_j) - (c_i*s_j + 2^-100)
//
// in three fused steps raises lanes[t*32 + c%32] where it is above it (a
// NaN lo never is). Unless k is 0, kth[t] is then raised to the k-th
// largest of the row's lanes, where that is above it.
func topKLanesGo(cells []int32, ldc, pairs int, col, row []float32, admit []uint32, live uint32, groups int, lanes []float32, k int, kth []float32) {
	twoD := float32(2*groups + 2)
	for t := range 16 {
		if live>>t&1 == 0 {
			continue
		}
		si, ci := row[t], row[16+t]
		for c := range 2 * panelCols * pairs {
			if admit[c/32]>>(c%32)&1 == 0 {
				continue
			}
			sj, bj := colMeta(col, c)
			if lo, l := lowerEst(cells[t*ldc+c], twoD, si, ci, sj, bj), &lanes[t*32+c%32]; lo > *l {
				*l = lo
			}
		}
		if k > 0 {
			if m := kthLargest(lanes[t*32:t*32+32], k); m > kth[t] {
				kth[t] = m
			}
		}
	}
}

// kthLargest is the k-th largest of the 32 lane maxima l, none NaN.
func kthLargest(l []float32, k int) float32 {
	var top [topKMaxK]float32 // descending
	for i := range k {
		top[i] = float32(math.Inf(-1))
	}
	for _, v := range l[:32] {
		if v > top[k-1] {
			p := k - 1
			for ; p > 0 && top[p-1] < v; p-- {
				top[p] = top[p-1]
			}
			top[p] = v
		}
	}
	return top[k-1]
}

// topKListGo is topKList's Go form: row by row in live and column by
// column, every admitted cell whose upper estimate
//
//	up = s_i*(s_j*cell + b_j) + (c_i*s_j + 2^-100)
//
// is not below kth[t] (a NaN kth made +Inf), or is NaN, is appended to
// ups, cols (j0+c) and rows (n0+t).
func topKListGo(cells []int32, ldc, pairs int, col, row []float32, admit []uint32, live uint32, kth []float32, ups []float32, cols, rows []int32, j0, n0 int) ([]float32, []int32, []int32) {
	for t := range 16 {
		if live>>t&1 == 0 {
			continue
		}
		si, ci, b := row[t], row[16+t], kth[t]
		if b != b {
			b = float32(math.Inf(1))
		}
		for c := range 2 * panelCols * pairs {
			if admit[c/32]>>(c%32)&1 == 0 {
				continue
			}
			sj, bj := colMeta(col, c)
			if up := upperEst(cells[t*ldc+c], si, ci, sj, bj); !(up < b) {
				ups, cols, rows = append(ups, up), append(cols, int32(j0+c)), append(rows, int32(n0+t))
			}
		}
	}
	return ups, cols, rows
}

// lowerEst and upperEst are a cell's estimates (package doc, "Int8
// filter" and "Top-k by candidates") from its int32 D + q_i·q_j, 2D,
// the row's scale and factor and the column's scale and b, each step
// fused and rounded once.
func lowerEst(cell int32, twoD, si, ci, sj, bj float32) float32 {
	return fma32(si, fma32(float32(cell)-twoD, sj, -bj), -fma32(ci, sj, 0x1p-100))
}

func upperEst(cell int32, si, ci, sj, bj float32) float32 {
	return fma32(si, fma32(float32(cell), sj, bj), fma32(ci, sj, 0x1p-100))
}

// colMeta is the scale and b of column c of panels whose meta starts at
// col: per panel 16 scales, then 16 b.
func colMeta(col []float32, c int) (s, b float32) {
	m := col[c/panelCols*2*panelCols:]
	return m[c%panelCols], m[panelCols+c%panelCols]
}

// dotPairsGo is dotPairs' Go form: dst[l] is dotSeq of the d elements at
// r[ri[l]:] and s[sj[l]:], for l < n.
func dotPairsGo(dst, r, s []float32, ri, sj []int32, d, n int) {
	for l := range n {
		dst[l] = dotSeq(r[ri[l]:ri[l]+int32(d)], s[sj[l]:sj[l]+int32(d)])
	}
}
