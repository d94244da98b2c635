// Package mathx provides the small dense linear algebra used by the
// extraction algorithms: 3-vectors, 3×3 matrices, and eigenvalues of
// symmetric 3×3 matrices (the core of the λ2 vortex criterion).
package mathx

import "math"

// Vec3 is a point or vector in R³.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s·a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a.X, s * a.Y, s * a.Z} }

// Dot returns the inner product a·b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a×b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Norm returns the Euclidean length of a.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Normalize returns a scaled to unit length; the zero vector is returned
// unchanged.
func (a Vec3) Normalize() Vec3 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// Lerp returns a + t·(b−a).
func (a Vec3) Lerp(b Vec3, t float64) Vec3 {
	return Vec3{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y), a.Z + t*(b.Z-a.Z)}
}

// Mat3 is a 3×3 matrix in row-major order: M[r][c].
type Mat3 [3][3]float64

// Add returns m + n.
func (m Mat3) Add(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[i][j] + n[i][j]
		}
	}
	return r
}

// Scale returns s·m.
func (m Mat3) Scale(s float64) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = s * m[i][j]
		}
	}
	return r
}

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m[i][k] * n[k][j]
			}
			r[i][j] = s
		}
	}
	return r
}

// MulVec returns m·v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[j][i]
		}
	}
	return r
}

// Symmetric returns the symmetric part ½(m + mᵀ).
func (m Mat3) Symmetric() Mat3 { return m.Add(m.Transpose()).Scale(0.5) }

// Antisymmetric returns the antisymmetric part ½(m − mᵀ).
func (m Mat3) Antisymmetric() Mat3 {
	var r Mat3
	t := m.Transpose()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = 0.5 * (m[i][j] - t[i][j])
		}
	}
	return r
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// Trace returns the trace of m.
func (m Mat3) Trace() float64 { return m[0][0] + m[1][1] + m[2][2] }

// Inverse returns m⁻¹ computed from the adjugate. ok is false when m is
// numerically singular relative to its scale.
func (m Mat3) Inverse() (Mat3, bool) {
	det := m.Det()
	// Scale-aware singularity test: compare against the cube of the largest
	// entry magnitude.
	maxAbs := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a := math.Abs(m[i][j]); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if math.Abs(det) < 1e-14*(1+maxAbs*maxAbs*maxAbs) {
		return Mat3{}, false
	}
	inv := 1 / det
	var r Mat3
	r[0][0] = (m[1][1]*m[2][2] - m[1][2]*m[2][1]) * inv
	r[0][1] = (m[0][2]*m[2][1] - m[0][1]*m[2][2]) * inv
	r[0][2] = (m[0][1]*m[1][2] - m[0][2]*m[1][1]) * inv
	r[1][0] = (m[1][2]*m[2][0] - m[1][0]*m[2][2]) * inv
	r[1][1] = (m[0][0]*m[2][2] - m[0][2]*m[2][0]) * inv
	r[1][2] = (m[0][2]*m[1][0] - m[0][0]*m[1][2]) * inv
	r[2][0] = (m[1][0]*m[2][1] - m[1][1]*m[2][0]) * inv
	r[2][1] = (m[0][1]*m[2][0] - m[0][0]*m[2][1]) * inv
	r[2][2] = (m[0][0]*m[1][1] - m[0][1]*m[1][0]) * inv
	return r, true
}

// Solve3 solves m·x = b by Gaussian elimination with partial pivoting.
// ok is false when m is (numerically) singular.
func Solve3(m Mat3, b Vec3) (x Vec3, ok bool) {
	a := [3][4]float64{
		{m[0][0], m[0][1], m[0][2], b.X},
		{m[1][0], m[1][1], m[1][2], b.Y},
		{m[2][0], m[2][1], m[2][2], b.Z},
	}
	for col := 0; col < 3; col++ {
		// Partial pivot.
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-14 {
			return Vec3{}, false
		}
		a[col], a[p] = a[p], a[col]
		inv := 1 / a[col][col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := a[r][col] * inv
			for c := col; c < 4; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	return Vec3{
		a[0][3] / a[0][0],
		a[1][3] / a[1][1],
		a[2][3] / a[2][2],
	}, true
}

// EigenvaluesSymmetric3 returns the eigenvalues of a symmetric 3×3 matrix in
// ascending order (λ0 ≤ λ1 ≤ λ2... note the paper's "λ2" is the *middle*
// eigenvalue when sorted in increasing order, i.e. the second largest). The
// matrix is assumed symmetric; only the upper triangle is read.
//
// The implementation is the standard trigonometric (Cardano) method for the
// characteristic polynomial of a symmetric matrix, which is robust because
// all roots are real.
func EigenvaluesSymmetric3(m Mat3) [3]float64 {
	a00, a01, a02 := m[0][0], m[0][1], m[0][2]
	a11, a12 := m[1][1], m[1][2]
	a22 := m[2][2]

	p1 := a01*a01 + a02*a02 + a12*a12
	if p1 == 0 {
		// Diagonal matrix.
		ev := [3]float64{a00, a11, a22}
		sort3(&ev)
		return ev
	}
	q := (a00 + a11 + a22) / 3
	b00, b11, b22 := a00-q, a11-q, a22-q
	p2 := b00*b00 + b11*b11 + b22*b22 + 2*p1
	p := math.Sqrt(p2 / 6)
	invP := 1 / p
	// B = (A - qI) / p
	c00, c01, c02 := b00*invP, a01*invP, a02*invP
	c11, c12 := b11*invP, a12*invP
	c22 := b22 * invP
	// det(B)/2
	detB := c00*(c11*c22-c12*c12) - c01*(c01*c22-c12*c02) + c02*(c01*c12-c11*c02)
	r := detB / 2
	// Clamp for numerical safety.
	if r < -1 {
		r = -1
	} else if r > 1 {
		r = 1
	}
	phi := math.Acos(r) / 3
	// Eigenvalues in decreasing order via the three cosine branches.
	eig2 := q + 2*p*math.Cos(phi)
	eig0 := q + 2*p*math.Cos(phi+2*math.Pi/3)
	eig1 := 3*q - eig0 - eig2
	ev := [3]float64{eig0, eig1, eig2}
	sort3(&ev)
	return ev
}

// Lambda2 computes the λ2 criterion value for a velocity-gradient tensor J:
// the middle eigenvalue of S² + Q², where S and Q are the symmetric and
// antisymmetric parts of J. Vortex regions are where Lambda2 < 0.
func Lambda2(j Mat3) float64 {
	s := j.Symmetric()
	q := j.Antisymmetric()
	m := s.Mul(s).Add(q.Mul(q))
	ev := EigenvaluesSymmetric3(m)
	return ev[1]
}

// Lambda2Jac is the specialized register form of Lambda2 used by the
// slab-blocked vortex kernel: the same arithmetic, operation for operation,
// as Symmetric/Antisymmetric/Mul/Add/EigenvaluesSymmetric3 — results are
// bit-identical (guarded by the vortex determinism test) — but on scalars,
// computing only the upper triangle of S²+Q² (the eigen-solve reads nothing
// else) and selecting the middle eigenvalue without materializing Mat3
// temporaries.
func Lambda2Jac(j00, j01, j02, j10, j11, j12, j20, j21, j22 float64) float64 {
	// S = ½(J+Jᵀ). Addition commutes exactly, so the lower triangle equals
	// the upper and is not recomputed.
	s00 := 0.5 * (j00 + j00)
	s01 := 0.5 * (j01 + j10)
	s02 := 0.5 * (j02 + j20)
	s11 := 0.5 * (j11 + j11)
	s12 := 0.5 * (j12 + j21)
	s22 := 0.5 * (j22 + j22)
	// Q = ½(J−Jᵀ). Subtraction does NOT commute on signed zeros, so the
	// lower triangle keeps its own expressions instead of negating the
	// upper; the diagonal stays written out for the same reason.
	q00 := 0.5 * (j00 - j00)
	q01 := 0.5 * (j01 - j10)
	q02 := 0.5 * (j02 - j20)
	q10 := 0.5 * (j10 - j01)
	q11 := 0.5 * (j11 - j11)
	q12 := 0.5 * (j12 - j21)
	q20 := 0.5 * (j20 - j02)
	q21 := 0.5 * (j21 - j12)
	q22 := 0.5 * (j22 - j22)

	// Upper triangle of S·S + Q·Q, accumulated in Mul's exact order
	// (running sum from zero).
	acc := 0.0
	acc += s00 * s00
	acc += s01 * s01
	acc += s02 * s02
	m00 := acc
	acc = 0.0
	acc += q00 * q00
	acc += q01 * q10
	acc += q02 * q20
	m00 += acc
	acc = 0.0
	acc += s00 * s01
	acc += s01 * s11
	acc += s02 * s12
	m01 := acc
	acc = 0.0
	acc += q00 * q01
	acc += q01 * q11
	acc += q02 * q21
	m01 += acc
	acc = 0.0
	acc += s00 * s02
	acc += s01 * s12
	acc += s02 * s22
	m02 := acc
	acc = 0.0
	acc += q00 * q02
	acc += q01 * q12
	acc += q02 * q22
	m02 += acc
	acc = 0.0
	acc += s01 * s01
	acc += s11 * s11
	acc += s12 * s12
	m11 := acc
	acc = 0.0
	acc += q10 * q01
	acc += q11 * q11
	acc += q12 * q21
	m11 += acc
	acc = 0.0
	acc += s01 * s02
	acc += s11 * s12
	acc += s12 * s22
	m12 := acc
	acc = 0.0
	acc += q10 * q02
	acc += q11 * q12
	acc += q12 * q22
	m12 += acc
	acc = 0.0
	acc += s02 * s02
	acc += s12 * s12
	acc += s22 * s22
	m22 := acc
	acc = 0.0
	acc += q20 * q02
	acc += q21 * q12
	acc += q22 * q22
	m22 += acc

	// EigenvaluesSymmetric3 inlined, keeping only the middle root.
	p1 := m01*m01 + m02*m02 + m12*m12
	if p1 == 0 {
		return med3(m00, m11, m22)
	}
	q := (m00 + m11 + m22) / 3
	b00, b11, b22 := m00-q, m11-q, m22-q
	p2 := b00*b00 + b11*b11 + b22*b22 + 2*p1
	p := math.Sqrt(p2 / 6)
	invP := 1 / p
	c00, c01, c02 := b00*invP, m01*invP, m02*invP
	c11, c12 := b11*invP, m12*invP
	c22 := b22 * invP
	detB := c00*(c11*c22-c12*c12) - c01*(c01*c22-c12*c02) + c02*(c01*c12-c11*c02)
	r := detB / 2
	if r < -1 {
		r = -1
	} else if r > 1 {
		r = 1
	}
	phi := math.Acos(r) / 3
	eig2 := q + 2*p*math.Cos(phi)
	eig0 := q + 2*p*math.Cos(phi+2*math.Pi/3)
	eig1 := 3*q - eig0 - eig2
	return med3(eig0, eig1, eig2)
}

// med3 selects the middle of three values with sort3's comparison sequence —
// pure selection, no arithmetic, so it matches sort3-then-index exactly.
func med3(v0, v1, v2 float64) float64 {
	if v0 > v1 {
		v0, v1 = v1, v0
	}
	if v1 > v2 {
		v1 = v2
	}
	if v0 > v1 {
		return v0
	}
	return v1
}

func sort3(v *[3]float64) {
	if v[0] > v[1] {
		v[0], v[1] = v[1], v[0]
	}
	if v[1] > v[2] {
		v[1], v[2] = v[2], v[1]
	}
	if v[0] > v[1] {
		v[0], v[1] = v[1], v[0]
	}
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// AlmostEqual reports whether a and b agree to within tol absolutely or
// relatively, whichever is looser. It is intended for test assertions on
// floating-point pipelines.
func AlmostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*scale
}
