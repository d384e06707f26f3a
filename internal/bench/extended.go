package bench

import (
	"slms/internal/interp"
)

// The extended Livermore suite: kernels beyond the subset the paper's
// figures use (the figures keep the paper's 31-loop population; these
// are provided — and tested through the full pipeline — because a
// downstream user of the library will run them, and because they
// exercise paths the core 31 do not: triangular inner loops (k6),
// index indirection with unknown dependences (k13/k14), control flow
// that defeats if-conversion (k17), downward loops (k19), long division
// recurrences (k20), intrinsics (k22), and 2-D wavefronts (k23).

// KernelsExtended returns the paper's 31 loops plus the extended
// Livermore kernels.
func KernelsExtended() []Kernel {
	return append(Kernels(), livermoreExtended()...)
}

func livermoreExtended() []Kernel {
	// Built outside Setup, so every run of a kernel shares one seeder
	// and with it the inputs it generated.
	seed13 := seedArrays(map[string][]int{"y": {130}, "z": {130}, "h": {130}}, 113)
	seed14 := seedArrays(map[string][]int{"vx": {150}, "xx": {150}, "grd": {150}}, 114)
	return []Kernel{
		{
			Name: "kernel6", Suite: "livermore-ext", FloatHeavy: true,
			// General linear recurrence equations: triangular inner loop
			// whose bound is the outer induction variable.
			Source: `
				int n = 40;
				float w[60]; float b[60][60];
				for (i = 1; i < n; i++) {
					w[i] = 0.0100;
					for (k = 0; k < i; k++) {
						w[i] = w[i] + b[k][i] * w[i-k-1];
					}
				}
			`,
			Setup: seedArrays(map[string][]int{"w": {60}, "b": {60, 60}}, 106),
		},
		{
			Name: "kernel13", Suite: "livermore-ext", FloatHeavy: false,
			// 2-D particle in cell (simplified): indirect addressing via an
			// int index array — the dependence analysis must go
			// conservative and SLMS must refuse without speculation.
			Source: `
				int n = 60;
				float y[130]; float z[130]; float h[130];
				int ir[70];
				for (k = 0; k < n; k++) {
					i1 = ir[k];
					j1 = ir[k+1];
					y[k] = y[k] + z[i1];
					h[j1] = h[j1] + 1.0;
				}
			`,
			Setup: func(env *interp.Env) {
				seed13(env)
				idx := make([]int64, 70)
				for i := range idx {
					idx[i] = int64((i * 7) % 64)
				}
				env.SetIntArray("ir", idx)
			},
		},
		{
			Name: "kernel14", Suite: "livermore-ext", FloatHeavy: false,
			// 1-D particle in cell (gather phase).
			Source: `
				int n = 60;
				float vx[150]; float xx[150]; float grd[150];
				int ix[70];
				for (k = 0; k < n; k++) {
					ix1 = ix[k];
					vx[k] = vx[k] + grd[ix1];
					xx[k] = xx[k] + vx[k] * 0.5;
				}
			`,
			Setup: func(env *interp.Env) {
				seed14(env)
				idx := make([]int64, 70)
				for i := range idx {
					idx[i] = int64((i*11 + 3) % 128)
				}
				env.SetIntArray("ix", idx)
			},
		},
		{
			Name: "kernel17", Suite: "livermore-ext", FloatHeavy: true,
			// Implicit conditional computation: a branchy body (with an
			// else branch updating different arrays) that if-conversion
			// must predicate.
			Source: `
				int n = 100;
				float vxne[120]; float vlr[120]; float vsp[120]; float vstp[120];
				for (k = 1; k < n; k++) {
					if (vlr[k] > 0.5) {
						vxne[k] = vxne[k-1] + vsp[k];
					} else {
						vxne[k] = vxne[k-1] - vstp[k];
					}
					vlr[k] = vlr[k] * 0.9;
				}
			`,
			Setup: seedArrays(map[string][]int{
				"vxne": {120}, "vlr": {120}, "vsp": {120}, "vstp": {120}}, 117),
		},
		{
			Name: "kernel19", Suite: "livermore-ext", FloatHeavy: true,
			// General linear recurrence, the downward half: exercises
			// downward-loop mirroring before SLMS.
			Source: `
				int n = 100;
				float b5[120]; float sa[120]; float sb[120];
				float stb5 = 0.1;
				for (i = n; i > 0; i--) {
					b5[i] = sa[i] + stb5 * sb[i];
					stb5 = b5[i] - stb5;
				}
			`,
			Setup: seedArrays(map[string][]int{"b5": {120}, "sa": {120}, "sb": {120}}, 119),
		},
		{
			Name: "kernel20", Suite: "livermore-ext", FloatHeavy: true,
			// Discrete ordinates transport: a division-heavy first-order
			// recurrence.
			Source: `
				int n = 80;
				float xx2[100]; float vx2[100]; float g[100]; float u[100]; float v[100]; float w2[100];
				float dk = 0.2;
				for (k = 1; k < n; k++) {
					di = u[k] - g[k] * xx2[k-1];
					dn = 0.2;
					if (di > 0.01) dn = v[k] / di;
					xx2[k] = (w2[k] + v[k] * dn) / (1.0 + g[k] * dn * dk);
					vx2[k] = xx2[k] - xx2[k-1];
				}
			`,
			Setup: seedArrays(map[string][]int{
				"xx2": {100}, "vx2": {100}, "g": {100}, "u": {100}, "v": {100}, "w2": {100}}, 120),
		},
		{
			Name: "kernel22", Suite: "livermore-ext", FloatHeavy: true,
			// Planckian distribution: the exp intrinsic in the body.
			Source: `
				int n = 80;
				float y2[100]; float u2[100]; float v2[100]; float x2[100];
				float expmax = 20.0;
				for (k = 0; k < n; k++) {
					y2[k] = u2[k] / v2[k];
					w = x2[k] / y2[k];
					if (w < expmax) {
						x2[k] = exp(w) - 1.0;
					}
				}
			`,
			Setup: seedArrays(map[string][]int{"y2": {100}, "u2": {100}, "v2": {100}, "x2": {100}}, 122),
		},
		{
			Name: "kernel23", Suite: "livermore-ext", FloatHeavy: true,
			// 2-D implicit hydrodynamics: carried dependences in both grid
			// dimensions (only the inner one matters to SLMS).
			Source: `
				int n = 28;
				float za2[32][32]; float zb2[32][32]; float zr2[32][32]; float zu2[32][32];
				float zv2[32][32]; float zz2[32][32];
				float s2 = 0.2;
				int j = 2;
				for (k = 1; k < n; k++) {
					qa = za2[k][j+1]*zr2[k][j] + za2[k][j-1]*zb2[k][j] +
						za2[k+1][j]*zu2[k][j] + za2[k-1][j]*zv2[k][j] + zz2[k][j];
					za2[k][j] = za2[k][j] + s2*(qa - za2[k][j]);
				}
			`,
			Setup: seedArrays(map[string][]int{
				"za2": {32, 32}, "zb2": {32, 32}, "zr2": {32, 32},
				"zu2": {32, 32}, "zv2": {32, 32}, "zz2": {32, 32}}, 123),
		},
	}
}
