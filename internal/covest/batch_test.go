package covest

import (
	"math"
	"math/rand"
	"testing"

	"mmwalign/internal/cmat"
)

// The batched solver kernels (lambdasFor, gradientInto) promise bitwise
// equality with the scalar path they replaced: per-observation QuadForm
// for λ and an outers-cache rank-one accumulation for the gradient.
// These tests pin that contract with exact (==) comparisons.

func randBatchFixture(t *testing.T, seed int64, dim, l int) (*Estimator, *solverWork, []cmat.Vector, *cmat.Matrix, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	est, err := NewEstimator(dim, Options{Gamma: 1.7, Mu: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	wk := est.work()
	wk.shape(dim, l)
	vs := make([]cmat.Vector, l)
	for j := range vs {
		vs[j] = cmat.NewVector(dim)
		for i := range vs[j] {
			vs[j][i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		wk.vmat.SetCol(j, vs[j])
	}
	raw := cmat.New(dim, dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			raw.Set(i, j, complex(r.NormFloat64(), r.NormFloat64()))
		}
	}
	q := raw.Hermitianize()
	ws := make([]float64, l)
	for j := range ws {
		ws[j] = r.Float64() * 3
	}
	return est, wk, vs, q, ws
}

func TestBatchedLambdasMatchScalarBitwise(t *testing.T) {
	for _, dims := range [][2]int{{4, 6}, {17, 23}, {56, 96}} {
		est, wk, vs, q, _ := randBatchFixture(t, int64(dims[0]), dims[0], dims[1])
		ls := est.lambdasFor(q, wk, &Stats{})
		for j, v := range vs {
			want := flooredLambda(est.opts.Gamma, q.QuadForm(v))
			if ls[j] != want {
				t.Fatalf("dim=%d L=%d: λ[%d] = %v, want %v (bitwise)", dims[0], dims[1], j, ls[j], want)
			}
		}
	}
}

func TestBatchedGradientMatchesOutersBitwise(t *testing.T) {
	est, wk, vs, q, ws := randBatchFixture(t, 99, 12, 20)
	if !est.gradientInto(wk.grad, q, wk, ws, &Stats{}) {
		t.Fatal("gradientInto reported non-finite coefficients on a finite fixture")
	}

	// Reference: the pre-batching gradient — an outer-product cache
	// accumulated with AddInPlace in ascending observation order.
	dim := 12
	ref := cmat.New(dim, dim)
	outer := cmat.New(dim, dim)
	for j, v := range vs {
		l := flooredLambda(est.opts.Gamma, q.QuadForm(v))
		coef := (1/l - ws[j]/(l*l)) * est.opts.Gamma
		outer.SetOuter(v, v)
		ref.AddInPlace(complex(coef, 0), outer)
	}
	for i := 0; i < dim; i++ {
		for k := 0; k < dim; k++ {
			if wk.grad.At(i, k) != ref.At(i, k) {
				t.Fatalf("gradient (%d,%d) = %v, want %v (bitwise)", i, k, wk.grad.At(i, k), ref.At(i, k))
			}
		}
	}
}

func TestBatchedObjectiveMatchesScalarBitwise(t *testing.T) {
	est, wk, vs, q, ws := randBatchFixture(t, 7, 10, 15)
	got := est.objective(q, wk, ws, &Stats{})
	var want float64
	for j, v := range vs {
		l := flooredLambda(est.opts.Gamma, q.QuadForm(v))
		want += math.Log(l) + ws[j]/l
	}
	want += est.opts.Mu * real(q.Trace())
	if got != want {
		t.Fatalf("objective = %v, want %v (bitwise)", got, want)
	}
}

func TestLambdaCacheInvalidation(t *testing.T) {
	est, wk, vs, q, _ := randBatchFixture(t, 31, 8, 12)
	first := est.lambdasFor(q, wk, &Stats{})
	v0 := first[0]
	// Memoized: same matrix pointer returns the cached slice without
	// recomputation.
	if wk.lamFor != q {
		t.Fatal("λ cache not tagged after evaluation")
	}
	// Mutating the matrix must be preceded by noteWrite, which drops the
	// tag; the next evaluation then reflects the new contents.
	wk.noteWrite(q)
	if wk.lamFor != nil {
		t.Fatal("noteWrite did not clear the λ cache tag")
	}
	q.Set(0, 0, q.At(0, 0)+complex(1, 0))
	second := est.lambdasFor(q, wk, &Stats{})
	if second[0] == v0 {
		t.Fatal("λ not recomputed after cache invalidation")
	}
	// Sanity: recomputed value matches the scalar path.
	if want := flooredLambda(est.opts.Gamma, q.QuadForm(vs[0])); second[0] != want {
		t.Fatalf("λ[0] after invalidation = %v, want %v", second[0], want)
	}
}

// TestEstimateNoOutersMemory pins the tentpole's memory claim: the
// workspace no longer carries L dense dim×dim outer products, only the
// dim×L packed matrix and its product buffer.
func TestEstimateWorkspaceCarriesPackedVOnly(t *testing.T) {
	est, err := NewEstimator(16, Options{Gamma: 1, Mu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	obs := make([]Observation, 40)
	for i := range obs {
		v := cmat.NewVector(16)
		for j := range v {
			v[j] = complex(r.NormFloat64(), r.NormFloat64())
		}
		obs[i] = Observation{V: v, Energy: r.Float64()}
	}
	if _, _, err := est.Estimate(obs, nil); err != nil {
		t.Fatal(err)
	}
	wk := est.wk
	if wk.vmat == nil || wk.qv == nil {
		t.Fatal("packed V buffers missing after a solve")
	}
	if wk.vmat.Cols() != wk.qv.Cols() {
		t.Fatalf("vmat %d cols, qv %d cols", wk.vmat.Cols(), wk.qv.Cols())
	}
	if wk.vmat.Rows() != wk.dim {
		t.Fatalf("vmat rows %d, want working dim %d", wk.vmat.Rows(), wk.dim)
	}
}
