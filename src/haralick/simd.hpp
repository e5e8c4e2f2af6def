// SIMD loop annotations for the f14 eigenproblem: the S = A*A^T product
// (features.cpp) and the eigensolver (eigen.cpp). The feature sweep itself is
// a plain scalar loop.
//
// Built with -DH4D_SIMD=1 (CMake option H4D_SIMD, default ON) the macros
// expand to `#pragma omp simd` forms, compiled with -fopenmp-simd — the
// pragmas vectorize loops but pull in no OpenMP runtime. With the option OFF
// they expand to nothing and every annotated loop runs scalar; CI builds and
// tests both variants. A reduction pragma may regroup its sums, so f14 can
// differ in the last bits between the two builds, never between the
// representations or variants of one build (see docs/KERNEL.md).
#pragma once

#if defined(H4D_SIMD) && H4D_SIMD
#define H4D_PRAGMA_(x) _Pragma(#x)
#define H4D_PRAGMA_SIMD _Pragma("omp simd")
#define H4D_PRAGMA_SIMD_REDUCE(var) H4D_PRAGMA_(omp simd reduction(+ : var))
#else
#define H4D_PRAGMA_SIMD
#define H4D_PRAGMA_SIMD_REDUCE(var)
#endif
