package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec3{0, 0, 0}).Normalize(); got != (Vec3{}) {
		t.Errorf("Normalize zero = %v", got)
	}
	if got := (Vec3{10, 0, 0}).Normalize(); got != (Vec3{1, 0, 0}) {
		t.Errorf("Normalize = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Vec3{2.5, 3.5, 4.5}) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampComp(ax), clampComp(ay), clampComp(az)}
		b := Vec3{clampComp(bx), clampComp(by), clampComp(bz)}
		c := a.Cross(b)
		return math.Abs(c.Dot(a)) < 1e-6*(1+a.Norm()*b.Norm()) &&
			math.Abs(c.Dot(b)) < 1e-6*(1+a.Norm()*b.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampComp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 1e3)
}

func TestMatMulIdentity(t *testing.T) {
	m := Mat3{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}
	id := Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if got := m.Mul(id); got != m {
		t.Errorf("m·I = %v, want %v", got, m)
	}
	if got := id.Mul(m); got != m {
		t.Errorf("I·m = %v, want %v", got, m)
	}
}

func TestMatVec(t *testing.T) {
	m := Mat3{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}}
	if got := m.MulVec(Vec3{1, 1, 1}); got != (Vec3{1, 2, 3}) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestSymmetricAntisymmetricDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m Mat3
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] = rng.NormFloat64()
			}
		}
		s := m.Symmetric()
		q := m.Antisymmetric()
		// S + Q == M
		sum := s.Add(q)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if !AlmostEqual(sum[i][j], m[i][j], 1e-12) {
					return false
				}
				if !AlmostEqual(s[i][j], s[j][i], 1e-12) {
					return false
				}
				if !AlmostEqual(q[i][j], -q[j][i], 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDetTrace(t *testing.T) {
	m := Mat3{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	if got := m.Det(); got != 24 {
		t.Errorf("Det = %v", got)
	}
	if got := m.Trace(); got != 9 {
		t.Errorf("Trace = %v", got)
	}
}

func TestSolve3(t *testing.T) {
	m := Mat3{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}}
	want := Vec3{1, -2, 3}
	b := m.MulVec(want)
	x, ok := Solve3(m, b)
	if !ok {
		t.Fatal("Solve3 reported singular")
	}
	if !AlmostEqual(x.X, want.X, 1e-10) || !AlmostEqual(x.Y, want.Y, 1e-10) || !AlmostEqual(x.Z, want.Z, 1e-10) {
		t.Fatalf("Solve3 = %v, want %v", x, want)
	}
}

func TestSolve3Singular(t *testing.T) {
	m := Mat3{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}} // rank 2
	if _, ok := Solve3(m, Vec3{1, 2, 3}); ok {
		t.Fatal("Solve3 should report singular for a rank-deficient matrix")
	}
}

func TestSolve3Random(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m Mat3
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] = rng.NormFloat64()
			}
		}
		if math.Abs(m.Det()) < 1e-3 {
			return true // skip near-singular draws
		}
		want := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		x, ok := Solve3(m, m.MulVec(want))
		if !ok {
			return false
		}
		return AlmostEqual(x.X, want.X, 1e-8) && AlmostEqual(x.Y, want.Y, 1e-8) && AlmostEqual(x.Z, want.Z, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvaluesDiagonal(t *testing.T) {
	m := Mat3{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}}
	ev := EigenvaluesSymmetric3(m)
	want := [3]float64{1, 2, 3}
	for i := range ev {
		if !AlmostEqual(ev[i], want[i], 1e-12) {
			t.Fatalf("ev = %v, want %v", ev, want)
		}
	}
}

func TestEigenvaluesKnown(t *testing.T) {
	// [[2,1,0],[1,2,0],[0,0,5]] has eigenvalues 1, 3, 5.
	m := Mat3{{2, 1, 0}, {1, 2, 0}, {0, 0, 5}}
	ev := EigenvaluesSymmetric3(m)
	want := [3]float64{1, 3, 5}
	for i := range ev {
		if !AlmostEqual(ev[i], want[i], 1e-10) {
			t.Fatalf("ev = %v, want %v", ev, want)
		}
	}
}

func TestEigenvaluesInvariants(t *testing.T) {
	// Property: for random symmetric matrices the eigenvalues must be sorted
	// and reproduce trace and determinant.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a Mat3
		for i := 0; i < 3; i++ {
			for j := i; j < 3; j++ {
				v := rng.NormFloat64() * 10
				a[i][j] = v
				a[j][i] = v
			}
		}
		ev := EigenvaluesSymmetric3(a)
		if !(ev[0] <= ev[1] && ev[1] <= ev[2]) {
			return false
		}
		sum := ev[0] + ev[1] + ev[2]
		prod := ev[0] * ev[1] * ev[2]
		return AlmostEqual(sum, a.Trace(), 1e-8) && AlmostEqual(prod, a.Det(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLambda2RigidRotation(t *testing.T) {
	// Pure rotation about z: J = [[0,-w,0],[w,0,0],[0,0,0]].
	// S = 0, Q = J, S²+Q² = Q² = diag(-w², -w², 0) → sorted (-w²,-w²,0),
	// middle eigenvalue -w² < 0: inside a vortex, as expected.
	w := 2.5
	j := Mat3{{0, -w, 0}, {w, 0, 0}, {0, 0, 0}}
	got := Lambda2(j)
	if !AlmostEqual(got, -w*w, 1e-10) {
		t.Fatalf("Lambda2 = %v, want %v", got, -w*w)
	}
}

func TestLambda2PureShear(t *testing.T) {
	// Uniaxial strain J = diag(a, -a, 0): S = J, Q = 0, S² = diag(a²,a²,0),
	// middle eigenvalue a² > 0: not a vortex.
	j := Mat3{{1.5, 0, 0}, {0, -1.5, 0}, {0, 0, 0}}
	if got := Lambda2(j); got <= 0 {
		t.Fatalf("Lambda2 = %v, want > 0 for pure strain", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1e12, 1e12+1, 1e-9) {
		t.Fatal("relative tolerance not applied")
	}
	if AlmostEqual(1, 2, 1e-9) {
		t.Fatal("1 and 2 are not almost equal")
	}
}
