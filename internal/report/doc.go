// Package report renders experiment results as aligned text tables, so
// every command-line tool and example prints the paper's rows uniformly.
//
// Table is titled, column-aligned text (WriteText) for the discrete
// artifacts: Table 2 accuracy rows, Figure 7(d) area budgets, the
// ablation sweeps. The continuous figures (the path-delay densities of
// Figure 1, the Perf(f)/PE(f) curves of Figures 2 and 8) are printed by
// evalsim with fmt directly.
//
// The package is intentionally dumb: no number formatting beyond
// fmt-style precision (AddRowF), no layout state shared between tables,
// no knowledge of what an experiment is. Observability output (the
// evalsim -metrics footer) deliberately does not use this package, so
// internal/obs stays dependency-free.
package report
