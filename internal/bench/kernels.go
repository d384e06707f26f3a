// Package bench contains the benchmark loops of the paper's evaluation —
// Livermore kernels, Linpack loops, NAS kernel loops and the Stone
// loops — rewritten in mini-C, together with the harness that reproduces
// every evaluation figure (14–22) as a text table.
//
// The originals are Fortran/C programs; what SLMS sees is only the loop
// body and its dependences, so each kernel here preserves the original's
// statement structure, array reference pattern and recurrence shape at
// reduced problem sizes (the simulator is execution-driven, so sizes are
// chosen for tractable run times). The Stone benchmark could not be
// recovered from public sources; its four loops are synthetic stand-ins
// covering the dependence shapes the paper's figures imply (see
// DESIGN.md). A total of 31 loops matches the paper's "out of 31 loops
// that were tested".
package bench

import (
	"sort"
	"sync"

	"slms/internal/interp"
)

// Kernel is one benchmark loop.
type Kernel struct {
	Name   string
	Suite  string // livermore | linpack | nas | stone
	Source string // mini-C text (arrays declared, data seeded externally)
	// Setup seeds the input arrays/scalars; called with a fresh
	// environment before every run so base and SLMS runs see identical
	// inputs.
	Setup func(*interp.Env)
	// FloatHeavy marks loops dominated by floating-point arithmetic
	// (used by the Figure 14 bad-case analysis).
	FloatHeavy bool
}

// rng is a small deterministic generator for seeding inputs.
type rng struct{ s uint64 }

func (r *rng) next() float64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return float64(r.s>>11) / float64(1<<53)
}

// fill returns n pseudo-random values in [lo, hi).
func fill(seed uint64, n int, lo, hi float64) []float64 {
	r := &rng{s: seed*2862933555777941757 + 3037000493}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*r.next()
	}
	return out
}

// seedArrays returns a Setup that installs the named float arrays of the
// given shapes, filled with pseudo-random values from seed. The values
// are generated on first use and copied into each environment, so every
// run of the kernel sees the same inputs without regenerating them.
func seedArrays(shapes map[string][]int, seed uint64) func(*interp.Env) {
	// Deterministic iteration order: sort names.
	names := make([]string, 0, len(shapes))
	for n := range shapes {
		names = append(names, n)
	}
	sort.Strings(names)
	data := sync.OnceValue(func() [][]float64 {
		out := make([][]float64, len(names))
		s := seed
		for i, name := range names {
			n := 1
			for _, d := range shapes[name] {
				n *= d
			}
			out[i] = fill(s, n, 0.1, 2.0)
			s += 7
		}
		return out
	})
	return func(env *interp.Env) {
		for i, vals := range data() {
			env.SetFloatArrayDims(names[i], shapes[names[i]], vals) // copies vals
		}
	}
}

// Kernels returns all benchmark loops.
func Kernels() []Kernel {
	var ks []Kernel
	ks = append(ks, livermore()...)
	ks = append(ks, linpack()...)
	ks = append(ks, nas()...)
	ks = append(ks, stone()...)
	return ks
}

// Suite returns the kernels of one suite.
func Suite(name string) []Kernel {
	var out []Kernel
	for _, k := range Kernels() {
		if k.Suite == name {
			out = append(out, k)
		}
	}
	return out
}

// Lookup returns the kernel with the given name, or nil.
func Lookup(name string) *Kernel {
	for _, k := range Kernels() {
		if k.Name == name {
			kk := k
			return &kk
		}
	}
	return nil
}

func livermore() []Kernel {
	return []Kernel{
		{
			Name: "kernel1", Suite: "livermore", FloatHeavy: true,
			// Hydro fragment: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])
			Source: `
				int n = 400;
				float x[440]; float y[440]; float z[440];
				float q = 0.5; float r = 0.2; float t = 0.1;
				for (k = 0; k < n; k++) {
					x[k] = q + y[k] * (r * z[k+10] + t * z[k+11]);
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {440}, "y": {440}, "z": {440}}, 1),
		},
		{
			Name: "kernel2", Suite: "livermore", FloatHeavy: true,
			// ICCG excerpt (simplified inner loop of the incomplete
			// Cholesky conjugate gradient).
			Source: `
				int n = 200;
				float x[420]; float v[420];
				for (k = 0; k < n; k++) {
					x[k] = x[k+32] - v[k] * x[k+33];
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {420}, "v": {420}}, 2),
		},
		{
			Name: "kernel3", Suite: "livermore", FloatHeavy: true,
			// Inner product: q += z[k]*x[k]
			Source: `
				int n = 400;
				float x[400]; float z[400];
				float q = 0.0;
				for (k = 0; k < n; k++) {
					q += z[k] * x[k];
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {400}, "z": {400}}, 3),
		},
		{
			Name: "kernel4", Suite: "livermore", FloatHeavy: true,
			// Banded linear equations (interior stripe).
			Source: `
				int n = 120;
				float x[500]; float y[500];
				float t = 0.25;
				for (k = 0; k < n; k++) {
					x[k+160] = x[k+160] - x[k] * y[k] - x[k+80] * t;
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {500}, "y": {500}}, 4),
		},
		{
			Name: "kernel5", Suite: "livermore", FloatHeavy: true,
			// Tri-diagonal elimination, below diagonal: first-order
			// recurrence.
			Source: `
				int n = 300;
				float x[310]; float y[310]; float z[310];
				for (i = 1; i < n; i++) {
					x[i] = z[i] * (y[i] - x[i-1]);
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {310}, "y": {310}, "z": {310}}, 5),
		},
		{
			Name: "kernel7", Suite: "livermore", FloatHeavy: true,
			// Equation of state fragment: long expression, no carried deps.
			Source: `
				int n = 300;
				float x[330]; float y[330]; float z[330]; float u[330];
				float q = 0.5; float r = 0.2; float t = 0.1;
				for (k = 0; k < n; k++) {
					x[k] = u[k] + r*(z[k] + r*y[k]) +
						t*(u[k+3] + r*(u[k+2] + r*u[k+1]) +
						t*(u[k+6] + q*(u[k+5] + q*u[k+4])));
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {330}, "y": {330}, "z": {330}, "u": {330}}, 7),
		},
		{
			Name: "kernel8", Suite: "livermore", FloatHeavy: true,
			// ADI integration fragment: the big multi-statement body the
			// paper analyzes (23 → 16 bundles under GCC).
			Source: `
				int n = 150;
				float u1[300]; float u2[300]; float u3[300];
				float du1[300]; float du2[300]; float du3[300];
				float sig = 2.0;
				for (ky = 1; ky < n; ky++) {
					du1[ky] = u1[ky+1] - u1[ky-1];
					du2[ky] = u2[ky+1] - u2[ky-1];
					du3[ky] = u3[ky+1] - u3[ky-1];
					u1[ky+101] = u1[ky] + sig*du1[ky] + sig*du2[ky] + sig*du3[ky];
					u2[ky+101] = u2[ky] + sig*du1[ky] + sig*du2[ky] + sig*du3[ky];
					u3[ky+101] = u3[ky] + sig*du1[ky] + sig*du2[ky] + sig*du3[ky];
				}
			`,
			Setup: seedArrays(map[string][]int{
				"u1": {300}, "u2": {300}, "u3": {300}, "du1": {300}, "du2": {300}, "du3": {300}}, 8),
		},
		{
			Name: "kernel9", Suite: "livermore", FloatHeavy: true,
			// Integrate predictors: one long statement over a 2-D row.
			Source: `
				int n = 100;
				float px[100][13];
				float dm22 = 0.1; float dm23 = 0.2; float dm24 = 0.3;
				float dm25 = 0.4; float dm26 = 0.5; float dm27 = 0.6;
				float dm28 = 0.7; float c0 = 1.1;
				for (i = 0; i < n; i++) {
					px[i][0] = dm28*px[i][12] + dm27*px[i][11] + dm26*px[i][10] +
						dm25*px[i][9] + dm24*px[i][8] + dm23*px[i][7] +
						dm22*px[i][6] + c0*(px[i][4] + px[i][5]) + px[i][2];
				}
			`,
			Setup: seedArrays(map[string][]int{"px": {100, 13}}, 9),
		},
		{
			Name: "kernel10", Suite: "livermore", FloatHeavy: false,
			// Difference predictors: many loop variants; MVE here needs
			// dozens of registers — the paper's Pentium regression case.
			Source: `
				int n = 100;
				float px[100][13]; float cx[100][13];
				for (i = 0; i < n; i++) {
					ar = cx[i][4];
					br = ar - px[i][4];
					px[i][4] = ar;
					cr = br - px[i][5];
					px[i][5] = br;
					ap = cr - px[i][6];
					px[i][6] = cr;
					bp = ap - px[i][7];
					px[i][7] = ap;
					cp = bp - px[i][8];
					px[i][8] = bp;
					aq = cp - px[i][9];
					px[i][9] = cp;
					bq = aq - px[i][10];
					px[i][10] = aq;
					cq = bq - px[i][11];
					px[i][11] = bq;
					px[i][12] = cq;
				}
			`,
			Setup: seedArrays(map[string][]int{"px": {100, 13}, "cx": {100, 13}}, 10),
		},
		{
			Name: "kernel11", Suite: "livermore", FloatHeavy: false,
			// First sum: prefix recurrence.
			Source: `
				int n = 300;
				float x[310]; float y[310];
				for (k = 1; k < n; k++) {
					x[k] = x[k-1] + y[k];
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {310}, "y": {310}}, 11),
		},
		{
			Name: "kernel12", Suite: "livermore", FloatHeavy: false,
			// First difference: fully parallel.
			Source: `
				int n = 300;
				float x[310]; float y[310];
				for (k = 0; k < n; k++) {
					x[k] = y[k+1] - y[k];
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {310}, "y": {310}}, 12),
		},
		{
			Name: "kernel18", Suite: "livermore", FloatHeavy: true,
			// 2-D explicit hydrodynamics fragment (one row sweep).
			Source: `
				int n = 90;
				float za[100][7]; float zb[100][7]; float zp[100][7];
				float zq[100][7]; float zr[100][7]; float zm[100][7];
				float t = 0.0037; float s = 0.0041;
				int j = 3;
				for (k = 1; k < n; k++) {
					za[k][j] = (zp[k-1][j+1] + zq[k-1][j+1] - zp[k-1][j] - zq[k-1][j]) *
						(zr[k][j] + zr[k-1][j]) / (zm[k-1][j] + zm[k-1][j+1]);
					zb[k][j] = (zp[k-1][j] + zq[k-1][j] - zp[k][j] - zq[k][j]) *
						(zr[k][j] + zr[k][j-1]) / (zm[k][j] + zm[k-1][j]);
				}
			`,
			Setup: seedArrays(map[string][]int{
				"za": {100, 7}, "zb": {100, 7}, "zp": {100, 7}, "zq": {100, 7}, "zr": {100, 7}, "zm": {100, 7}}, 18),
		},
		{
			Name: "kernel21", Suite: "livermore", FloatHeavy: true,
			// Matrix product inner loop.
			Source: `
				int n = 100;
				float px[100][26]; float vy[100][26]; float cx[100][26];
				int j = 5; int k2 = 7;
				for (i = 0; i < n; i++) {
					px[i][j] = px[i][j] + vy[i][k2] * cx[i][j];
				}
			`,
			Setup: seedArrays(map[string][]int{"px": {100, 26}, "vy": {100, 26}, "cx": {100, 26}}, 21),
		},
		{
			Name: "kernel24", Suite: "livermore", FloatHeavy: false,
			// Find location of first minimum: the conditional-branch loop
			// the paper highlights for ICC (5 → 3.5 bundles).
			Source: `
				int n = 300;
				float x[300];
				float xmin = x[0];
				int m = 0;
				bool p = false;
				for (k = 1; k < n; k++) {
					p = x[k] < xmin;
					if (p) m = k;
					if (p) xmin = x[k];
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {300}}, 24),
		},
	}
}

func linpack() []Kernel {
	return []Kernel{
		{
			Name: "daxpy", Suite: "linpack", FloatHeavy: true,
			Source: `
				int n = 400;
				float dx[400]; float dy[400];
				float da = 0.35;
				for (i = 0; i < n; i++) {
					dy[i] = dy[i] + da * dx[i];
				}
			`,
			Setup: seedArrays(map[string][]int{"dx": {400}, "dy": {400}}, 31),
		},
		{
			Name: "ddot", Suite: "linpack", FloatHeavy: true,
			Source: `
				int n = 400;
				float dx[400]; float dy[400];
				float dtemp = 0.0;
				for (i = 0; i < n; i++) {
					dtemp += dx[i] * dy[i];
				}
			`,
			Setup: seedArrays(map[string][]int{"dx": {400}, "dy": {400}}, 32),
		},
		{
			Name: "ddot2", Suite: "linpack", FloatHeavy: true,
			// Two-MI formulation of ddot (the paper's ddot2 variant): the
			// product is a separate statement, giving SLMS an MI to
			// overlap.
			Source: `
				int n = 400;
				float dx[400]; float dy[400];
				float dtemp = 0.0; float t = 0.0;
				for (i = 0; i < n; i++) {
					t = dx[i] * dy[i];
					dtemp = dtemp + t;
				}
			`,
			Setup: seedArrays(map[string][]int{"dx": {400}, "dy": {400}}, 33),
		},
		{
			Name: "dscal", Suite: "linpack", FloatHeavy: true,
			Source: `
				int n = 400;
				float dx[400];
				float da = 1.02;
				for (i = 0; i < n; i++) {
					dx[i] = da * dx[i];
				}
			`,
			Setup: seedArrays(map[string][]int{"dx": {400}}, 34),
		},
		{
			Name: "idamax", Suite: "linpack", FloatHeavy: false,
			// Index of element with largest absolute value.
			Source: `
				int n = 300;
				float dx[300];
				float dmax = abs(dx[0]);
				int idx = 0;
				bool p = false;
				for (i = 1; i < n; i++) {
					p = abs(dx[i]) > dmax;
					if (p) idx = i;
					if (p) dmax = abs(dx[i]);
				}
			`,
			Setup: seedArrays(map[string][]int{"dx": {300}}, 35),
		},
		{
			Name: "idamax2", Suite: "linpack", FloatHeavy: false,
			// Variant with the absolute value hoisted into its own MI.
			Source: `
				int n = 300;
				float dx[300];
				float dmax = abs(dx[0]);
				int idx = 0;
				float v = 0.0;
				bool p = false;
				for (i = 1; i < n; i++) {
					v = abs(dx[i]);
					p = v > dmax;
					if (p) idx = i;
					if (p) dmax = v;
				}
			`,
			Setup: seedArrays(map[string][]int{"dx": {300}}, 36),
		},
		{
			Name: "dmxpy", Suite: "linpack", FloatHeavy: true,
			// Matrix-vector product row update (inner loop).
			Source: `
				int n = 200;
				float y[200]; float x[200]; float m[200][8];
				int j = 3;
				for (i = 0; i < n; i++) {
					y[i] = y[i] + x[j] * m[i][j];
				}
			`,
			Setup: seedArrays(map[string][]int{"y": {200}, "x": {200}, "m": {200, 8}}, 37),
		},
	}
}

func nas() []Kernel {
	return []Kernel{
		{
			Name: "mxm", Suite: "nas", FloatHeavy: true,
			// Matrix multiply inner loop (unrolled by 2 in NASKER style).
			Source: `
				int n = 120;
				float a[120][4]; float b[120][4]; float c[120][4];
				int j = 1; int k2 = 2;
				for (i = 0; i < n; i++) {
					c[i][j] = c[i][j] + a[i][k2] * b[k2][j] + a[i][k2+1] * b[k2+1][j];
				}
			`,
			Setup: seedArrays(map[string][]int{"a": {120, 4}, "b": {120, 4}, "c": {120, 4}}, 41),
		},
		{
			Name: "cfft2d", Suite: "nas", FloatHeavy: true,
			// FFT butterfly row (real/imag interleaved as two arrays).
			Source: `
				int n = 128;
				float xr[300]; float xi[300]; float wr[300]; float wi[300];
				for (i = 0; i < n; i++) {
					tr = wr[i] * xr[i+128] - wi[i] * xi[i+128];
					ti = wr[i] * xi[i+128] + wi[i] * xr[i+128];
					xr[i+128] = xr[i] - tr;
					xi[i+128] = xi[i] - ti;
					xr[i] = xr[i] + tr;
					xi[i] = xi[i] + ti;
				}
			`,
			Setup: seedArrays(map[string][]int{"xr": {300}, "xi": {300}, "wr": {300}, "wi": {300}}, 42),
		},
		{
			Name: "cholsky", Suite: "nas", FloatHeavy: true,
			// Cholesky factorization update row.
			Source: `
				int n = 150;
				float a[160]; float b[160]; float d[160];
				float f = 0.2;
				for (i = 0; i < n; i++) {
					a[i] = a[i] - f * b[i] * b[i] - d[i] * f;
				}
			`,
			Setup: seedArrays(map[string][]int{"a": {160}, "b": {160}, "d": {160}}, 43),
		},
		{
			Name: "btrix", Suite: "nas", FloatHeavy: true,
			// Block tridiagonal back-substitution stripe.
			Source: `
				int n = 120;
				float s1[140]; float s2[140]; float s3[140]; float u[140];
				for (j = 1; j < n; j++) {
					u[j] = u[j] - s1[j] * u[j-1];
					s3[j] = s3[j] - s2[j] * s1[j];
				}
			`,
			Setup: seedArrays(map[string][]int{"s1": {140}, "s2": {140}, "s3": {140}, "u": {140}}, 44),
		},
		{
			Name: "gmtry", Suite: "nas", FloatHeavy: true,
			// Gaussian elimination inner loop from the geometry kernel.
			Source: `
				int n = 150;
				float rmatrx[160]; float pivot[160];
				float f = 0.15;
				for (i = 0; i < n; i++) {
					rmatrx[i] = rmatrx[i] - pivot[i] * f;
				}
			`,
			Setup: seedArrays(map[string][]int{"rmatrx": {160}, "pivot": {160}}, 45),
		},
		{
			Name: "vpenta", Suite: "nas", FloatHeavy: true,
			// Pentadiagonal inversion sweep (simplified to 1-D stripes).
			Source: `
				int n = 150;
				float x[170]; float y[170]; float a[170]; float b[170]; float c[170];
				for (i = 2; i < n; i++) {
					x[i] = (y[i] - a[i] * x[i-1] - b[i] * x[i-2]) / c[i];
				}
			`,
			Setup: seedArrays(map[string][]int{"x": {170}, "y": {170}, "a": {170}, "b": {170}, "c": {170}}, 46),
		},
	}
}

func stone() []Kernel {
	return []Kernel{
		{
			Name: "stone1", Suite: "stone", FloatHeavy: false,
			// Three-statement update chain over one array.
			Source: `
				int n = 300;
				float a[310];
				for (i = 0; i < n; i++) {
					a[i] += i;
					a[i] *= 6.0;
					a[i] -= 1.0;
				}
			`,
			Setup: seedArrays(map[string][]int{"a": {310}}, 51),
		},
		{
			Name: "stone2", Suite: "stone", FloatHeavy: true,
			// Shifted-copy smoothing.
			Source: `
				int n = 280;
				float a[300]; float b[300];
				for (i = 1; i < n; i++) {
					b[i] = (a[i-1] + a[i] + a[i+1]) / 3.0;
				}
			`,
			Setup: seedArrays(map[string][]int{"a": {300}, "b": {300}}, 52),
		},
		{
			Name: "stone3", Suite: "stone", FloatHeavy: true,
			// Two coupled streams with a cross-iteration flow.
			Source: `
				int n = 250;
				float a[280]; float b[280];
				float t = 0.0;
				for (i = 1; i < n; i++) {
					t = a[i-1] * 2.0;
					b[i] = b[i] + t;
					a[i] = t + b[i];
				}
			`,
			Setup: seedArrays(map[string][]int{"a": {280}, "b": {280}}, 53),
		},
		{
			Name: "stone4", Suite: "stone", FloatHeavy: false,
			// Strided gather/scatter pair.
			Source: `
				int n = 140;
				float a[300]; float b[300];
				for (i = 0; i < n; i++) {
					a[2*i] = b[2*i+1] * 0.5 + b[2*i] * 0.25;
					b[2*i] = a[2*i+1] + 1.0;
				}
			`,
			Setup: seedArrays(map[string][]int{"a": {300}, "b": {300}}, 54),
		},
	}
}
