package numeric

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Coord is a (row, col) coordinate used while accumulating matrix stamps.
type Coord struct{ Row, Col int }

// SparseBuilder accumulates matrix entries by coordinate, summing duplicates,
// which is exactly the "stamping" pattern of modified nodal analysis.  Call
// Compile (or CompileInto) to obtain a CSC matrix.
//
// The builder has two modes.  A fresh builder accumulates into a hash map.
// The first Compile freezes the observed sparsity pattern; from then on Reset
// keeps the pattern and only zeroes the values, and Add on a known coordinate
// is a direct array accumulation with no hashing or allocation.  Stamps at
// coordinates outside the frozen pattern are collected on the side and merged
// into a new, strictly larger pattern at the next Compile (the pattern only
// ever grows, so it stabilises after the first few Newton iterations even for
// circuits whose device stamps come and go with the operating point).
//
// PatternVersion identifies the current frozen pattern; consumers that cache
// pattern-dependent work (such as a symbolic LU analysis) compare it to decide
// whether their cache is still valid.
type SparseBuilder struct {
	n       int
	entries map[Coord]float64 // dynamic-mode accumulation and frozen-mode misses

	frozen  bool
	pos     map[Coord]int // coordinate -> index into vals (frozen mode)
	colptr  []int         // frozen pattern, shared with compiled matrices
	rowidx  []int         // frozen pattern, shared with compiled matrices
	vals    []float64     // frozen-mode accumulation buffer
	version int           // bumped whenever the frozen pattern changes
}

// NewSparseBuilder creates a builder for an n x n matrix.
func NewSparseBuilder(n int) *SparseBuilder {
	return &SparseBuilder{n: n, entries: make(map[Coord]float64)}
}

// N returns the matrix dimension.
func (b *SparseBuilder) N() int { return b.n }

// Add accumulates v into entry (r, c).
func (b *SparseBuilder) Add(r, c int, v float64) {
	if r < 0 || r >= b.n || c < 0 || c >= b.n {
		panic(fmt.Sprintf("numeric: stamp (%d,%d) outside %dx%d matrix", r, c, b.n, b.n))
	}
	if v == 0 {
		return
	}
	coord := Coord{r, c}
	if b.frozen {
		if i, ok := b.pos[coord]; ok {
			b.vals[i] += v
			return
		}
	}
	b.entries[coord] += v
}

// NNZ returns the current number of stored (possibly zero-summed) entries:
// the frozen pattern size plus any not-yet-merged out-of-pattern stamps.
func (b *SparseBuilder) NNZ() int { return len(b.rowidx) + len(b.entries) }

// Reset clears all accumulated values, keeping the dimension and - once the
// pattern is frozen - the pattern and every buffer, so the stamp/compile cycle
// of an unchanged topology allocates nothing.
func (b *SparseBuilder) Reset() {
	if b.frozen {
		for i := range b.vals {
			b.vals[i] = 0
		}
	}
	clear(b.entries)
}

// PatternVersion identifies the frozen sparsity pattern.  It is 0 before the
// first Compile and increases every time the pattern changes.
func (b *SparseBuilder) PatternVersion() int { return b.version }

// Compile converts the accumulated entries into a CSC matrix.
func (b *SparseBuilder) Compile() *CSC {
	return b.CompileInto(&CSC{})
}

// CompileInto is Compile with a caller-provided destination: the pattern
// slices of the result are shared with the builder (they are immutable until
// the pattern grows, at which point fresh slices are allocated) and the value
// slice of m is reused when large enough.  The same builder must not be
// compiled into two matrices that need to stay independent across a pattern
// change.
func (b *SparseBuilder) CompileInto(m *CSC) *CSC {
	if !b.frozen || len(b.entries) > 0 {
		b.refreeze()
	}
	m.N = b.n
	m.ColPtr = b.colptr
	m.RowIdx = b.rowidx
	if cap(m.Values) < len(b.vals) {
		m.Values = make([]float64, len(b.vals))
	}
	m.Values = m.Values[:len(b.vals)]
	copy(m.Values, b.vals)
	return m
}

// refreeze merges the frozen pattern (if any) with the out-of-pattern entries
// into a new frozen pattern.
func (b *SparseBuilder) refreeze() {
	type cv struct {
		c Coord
		v float64
	}
	merged := make([]cv, 0, len(b.rowidx)+len(b.entries))
	for col := 0; col+1 < len(b.colptr); col++ {
		for p := b.colptr[col]; p < b.colptr[col+1]; p++ {
			merged = append(merged, cv{Coord{b.rowidx[p], col}, b.vals[p]})
		}
	}
	for c, v := range b.entries {
		merged = append(merged, cv{c, v})
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].c.Col != merged[j].c.Col {
			return merged[i].c.Col < merged[j].c.Col
		}
		return merged[i].c.Row < merged[j].c.Row
	})
	b.colptr = make([]int, b.n+1)
	b.rowidx = make([]int, len(merged))
	b.vals = make([]float64, len(merged))
	b.pos = make(map[Coord]int, len(merged))
	col := 0
	for i, e := range merged {
		for col < e.c.Col {
			col++
			b.colptr[col] = i
		}
		b.rowidx[i] = e.c.Row
		b.vals[i] = e.v
		b.pos[e.c] = i
	}
	for col < b.n {
		col++
		b.colptr[col] = len(merged)
	}
	clear(b.entries)
	b.frozen = true
	b.version++
}

// ToDense materialises the builder into a dense matrix (useful for tests and
// for tiny circuits).
func (b *SparseBuilder) ToDense() *Dense {
	d := NewDense(b.n, b.n)
	for col := 0; col+1 < len(b.colptr); col++ {
		for p := b.colptr[col]; p < b.colptr[col+1]; p++ {
			d.Add(b.rowidx[p], col, b.vals[p])
		}
	}
	for c, v := range b.entries {
		d.Add(c.Row, c.Col, v)
	}
	return d
}

// CSC is a compressed-sparse-column matrix.
type CSC struct {
	N      int
	ColPtr []int // len N+1
	RowIdx []int // len nnz
	Values []float64
}

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.RowIdx) }

// MulVec computes y = A x.
func (m *CSC) MulVec(x []float64) []float64 {
	return m.MulVecTo(make([]float64, m.N), x)
}

// MulVecTo computes dst = A x in place and returns dst; dst must have length
// N and must not alias x.
func (m *CSC) MulVecTo(dst, x []float64) []float64 {
	if len(x) != m.N || len(dst) != m.N {
		panic(fmt.Sprintf("numeric: MulVecTo dimension mismatch %d/%d vs %d", len(dst), len(x), m.N))
	}
	for i := range dst {
		dst[i] = 0
	}
	for c := 0; c < m.N; c++ {
		xc := x[c]
		if xc == 0 {
			continue
		}
		for p := m.ColPtr[c]; p < m.ColPtr[c+1]; p++ {
			dst[m.RowIdx[p]] += m.Values[p] * xc
		}
	}
	return dst
}

// At returns element (r, c); O(nnz in column c).
func (m *CSC) At(r, c int) float64 {
	for p := m.ColPtr[c]; p < m.ColPtr[c+1]; p++ {
		if m.RowIdx[p] == r {
			return m.Values[p]
		}
	}
	return 0
}

// ToDense converts to a dense matrix.
func (m *CSC) ToDense() *Dense {
	d := NewDense(m.N, m.N)
	for c := 0; c < m.N; c++ {
		for p := m.ColPtr[c]; p < m.ColPtr[c+1]; p++ {
			d.Add(m.RowIdx[p], c, m.Values[p])
		}
	}
	return d
}

// luEntry is one stored nonzero of an L or U column.
type luEntry struct {
	row int
	val float64
}

// SparseLU is a left-looking (Gilbert-Peierls) sparse LU factorisation with
// partial pivoting, the factorisation style used by SPICE-class circuit
// simulators.  The factorisation satisfies P A = L U with L unit lower
// triangular.
//
// The factorisation separates cleanly into a symbolic stage (the fill-in
// pattern of L and U plus the pivot order, which depend only on the sparsity
// pattern of A and on the values seen by the *first* factorisation) and a
// numeric stage (the stored values).  Refactor redoes only the numeric stage
// for a matrix with the same pattern, skipping the reachability DFS, the
// pivot search and every allocation - the dominant cost of re-factorising the
// MNA matrix at each Newton iterate of a fixed netlist.
type SparseLU struct {
	n     int
	lcols [][]luEntry // L columns; row indices in pivot order, diag (==1) omitted
	lorig [][]int     // original row index of each L entry (parallel to lcols)
	ucols [][]luEntry // U columns; rows ascending in pivot order, diagonal last
	pinv  []int       // pinv[origRow] = pivot position
	perm  []int       // perm[k] = original row selected as pivot k

	// Scratch buffers for Refactor / SolveTo / SolveRefinedTo.
	work  []float64
	resid []float64
	corr  []float64
}

// ErrUnstablePivot is returned by Refactor when a reused pivot has become
// too small relative to its column for the cached pivot order to be safe; the
// caller should fall back to a fresh FactorizeSparse.
var ErrUnstablePivot = errors.New("numeric: cached pivot order numerically unstable for the new values")

// refactorPivotFloor is the smallest |pivot| / ||column|| ratio Refactor
// accepts before reporting ErrUnstablePivot.
const refactorPivotFloor = 1e-10

// FactorizeSparse computes the sparse LU factorisation of a.
//
// The stored pattern is structural: every position reachable from the pattern
// of A is kept, even when its value happens to be zero at the factorised
// operating point.  This makes the pattern (and hence the validity of
// Refactor) independent of the matrix values.
func FactorizeSparse(a *CSC) (*SparseLU, error) {
	n := a.N
	lu := &SparseLU{
		n:     n,
		lcols: make([][]luEntry, n),
		lorig: make([][]int, n),
		ucols: make([][]luEntry, n),
		pinv:  make([]int, n),
		perm:  make([]int, n),
	}
	// lrowsOrig[k] holds L column k with original row indices until all
	// pivots are known.
	lrowsOrig := make([][]luEntry, n)
	for i := range lu.pinv {
		lu.pinv[i] = -1
		lu.perm[i] = -1
	}

	x := make([]float64, n)     // dense accumulator
	mark := make([]bool, n)     // visited flags for the DFS
	stack := make([]int, 0, n)  // DFS stack
	topo := make([]int, 0, n)   // reach set in topological order
	pstack := make([]int, 0, n) // per-node position in column traversal
	elim := make([]int, 0, n)   // pivotal reach nodes in ascending pivot order

	for k := 0; k < n; k++ {
		// --- symbolic: reachability of the pattern of A(:,k) in the graph
		// of already-computed L columns.
		topo = topo[:0]
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			start := a.RowIdx[p]
			if mark[start] {
				continue
			}
			// Iterative DFS from start.
			stack = stack[:0]
			pstack = pstack[:0]
			stack = append(stack, start)
			pstack = append(pstack, 0)
			mark[start] = true
			for len(stack) > 0 {
				i := stack[len(stack)-1]
				col := lu.pinv[i]
				advanced := false
				if col >= 0 {
					ents := lrowsOrig[col]
					for pos := pstack[len(pstack)-1]; pos < len(ents); pos++ {
						r := ents[pos].row
						if !mark[r] {
							pstack[len(pstack)-1] = pos + 1
							stack = append(stack, r)
							pstack = append(pstack, 0)
							mark[r] = true
							advanced = true
							break
						}
					}
				}
				if !advanced {
					stack = stack[:len(stack)-1]
					pstack = pstack[:len(pstack)-1]
					topo = append(topo, i)
				}
			}
		}

		// --- numeric: scatter A(:,k) and eliminate.  Elimination goes in
		// ascending pivot order (any order respecting the column dependencies
		// is valid; ascending is the order Refactor replays, so using it here
		// keeps the two numerically identical).
		elim = elim[:0]
		for _, i := range topo {
			if lu.pinv[i] >= 0 {
				elim = append(elim, i)
			}
		}
		sort.Slice(elim, func(a, b int) bool { return lu.pinv[elim[a]] < lu.pinv[elim[b]] })
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			x[a.RowIdx[p]] = a.Values[p]
		}
		for _, i := range elim {
			xi := x[i]
			if xi == 0 {
				continue
			}
			for _, e := range lrowsOrig[lu.pinv[i]] {
				x[e.row] -= e.val * xi
			}
		}

		// --- pivot selection: largest magnitude among not-yet-pivotal rows.
		ipiv := -1
		var maxAbs float64
		for _, i := range topo {
			if lu.pinv[i] < 0 {
				if v := math.Abs(x[i]); v > maxAbs {
					maxAbs = v
					ipiv = i
				}
			}
		}
		if ipiv == -1 || maxAbs == 0 || math.IsNaN(maxAbs) {
			return nil, ErrSingular
		}
		pivotVal := x[ipiv]
		lu.pinv[ipiv] = k
		lu.perm[k] = ipiv

		// --- store U column k (pivotal rows ascending, then the diagonal)
		// and L column k (remaining reach rows, original indices for now).
		ucol := make([]luEntry, 0, len(elim)+1)
		for _, i := range elim {
			ucol = append(ucol, luEntry{row: lu.pinv[i], val: x[i]})
		}
		ucol = append(ucol, luEntry{row: k, val: pivotVal})
		lcol := make([]luEntry, 0, len(topo)-len(elim))
		for _, i := range topo {
			if i != ipiv && lu.pinv[i] < 0 {
				lcol = append(lcol, luEntry{row: i, val: x[i] / pivotVal})
			}
		}
		lu.ucols[k] = ucol
		lrowsOrig[k] = lcol

		// --- clear work arrays for the next column.
		for _, i := range topo {
			x[i] = 0
			mark[i] = false
		}
	}

	// Any rows never chosen as pivots indicate structural singularity.
	for i := 0; i < n; i++ {
		if lu.pinv[i] < 0 {
			return nil, ErrSingular
		}
	}

	// Record L with both pivot-order rows (for the triangular solves) and
	// original rows (for Refactor's scatter updates), preserving entry order.
	for k := 0; k < n; k++ {
		src := lrowsOrig[k]
		dst := make([]luEntry, len(src))
		orig := make([]int, len(src))
		for i, e := range src {
			dst[i] = luEntry{row: lu.pinv[e.row], val: e.val}
			orig[i] = e.row
		}
		lu.lcols[k] = dst
		lu.lorig[k] = orig
	}
	return lu, nil
}

// Refactor recomputes the numeric factorisation for a matrix with the same
// sparsity pattern as the one originally factorised (or a sub-pattern of it),
// reusing the cached pivot order and fill-in pattern.  It performs no
// reachability analysis, no pivot search and no allocation, which makes it
// several times cheaper than FactorizeSparse on circuit matrices.
//
// It returns ErrUnstablePivot when a reused pivot has become too small
// relative to its column, and ErrSingular on an exactly zero or NaN pivot;
// in both cases the caller should fall back to FactorizeSparse, and the
// factorisation must not be used for solves until it succeeds.
func (f *SparseLU) Refactor(a *CSC) error {
	if a.N != f.n {
		return fmt.Errorf("numeric: Refactor dimension mismatch %d vs %d", a.N, f.n)
	}
	if f.work == nil {
		f.work = make([]float64, f.n)
	}
	x := f.work
	for k := 0; k < f.n; k++ {
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			x[a.RowIdx[p]] = a.Values[p]
		}
		ucol := f.ucols[k]
		colMax := 0.0
		for j := 0; j < len(ucol)-1; j++ {
			col := ucol[j].row
			i := f.perm[col]
			xi := x[i]
			ucol[j].val = xi
			x[i] = 0
			if xi == 0 {
				continue
			}
			lor := f.lorig[col]
			lc := f.lcols[col]
			for t := range lor {
				x[lor[t]] -= lc[t].val * xi
			}
		}
		prow := f.perm[k]
		piv := x[prow]
		x[prow] = 0
		ucol[len(ucol)-1].val = piv
		if v := math.Abs(piv); v > colMax {
			colMax = v
		}
		lor := f.lorig[k]
		lc := f.lcols[k]
		for t := range lor {
			v := x[lor[t]]
			x[lor[t]] = 0
			if av := math.Abs(v); av > colMax {
				colMax = av
			}
			lc[t].val = v / piv
		}
		if piv == 0 || math.IsNaN(piv) {
			return ErrSingular
		}
		if math.Abs(piv) < refactorPivotFloor*colMax {
			return ErrUnstablePivot
		}
	}
	return nil
}

// Solve solves A x = b for the factorised matrix.
func (f *SparseLU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo solves A x = b into dst (len n, must not alias b) without
// allocating.
func (f *SparseLU) SolveTo(dst, b []float64) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("numeric: rhs length %d/%d, want %d", len(dst), len(b), f.n)
	}
	// dst = P b
	for i := 0; i < f.n; i++ {
		dst[f.pinv[i]] = b[i]
	}
	// Forward solve L w = P b (unit diagonal).
	for k := 0; k < f.n; k++ {
		wk := dst[k]
		if wk == 0 {
			continue
		}
		for _, e := range f.lcols[k] {
			dst[e.row] -= e.val * wk
		}
	}
	// Backward solve U x = w.  U is stored by columns with the diagonal last;
	// iterate columns from right to left.
	for k := f.n - 1; k >= 0; k-- {
		ucol := f.ucols[k]
		diag := ucol[len(ucol)-1].val
		if diag == 0 {
			return ErrSingular
		}
		dst[k] /= diag
		xk := dst[k]
		if xk == 0 {
			continue
		}
		for _, e := range ucol[:len(ucol)-1] {
			dst[e.row] -= e.val * xk
		}
	}
	return nil
}

// NNZ returns the number of stored nonzeros in L and U combined (a measure of
// fill-in used by the experiments).
func (f *SparseLU) NNZ() int {
	nnz := 0
	for k := 0; k < f.n; k++ {
		nnz += len(f.lcols[k]) + len(f.ucols[k])
	}
	return nnz
}

// SolveRefined solves A x = b and then applies iters rounds of iterative
// refinement (x += A\(b - A x)) using the same factorisation.  Refinement
// recovers most of the accuracy lost to ill-conditioning, which matters for
// the MNA matrices of the analog substrate whose conductances span many
// orders of magnitude (diode on-resistances versus op-amp-derived residual
// conductances).
func (f *SparseLU) SolveRefined(a *CSC, b []float64, iters int) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveRefinedTo(x, a, b, iters); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveRefinedTo is SolveRefined into a caller-provided destination (len n,
// must not alias b); it allocates nothing beyond the factorisation's own
// lazily-created scratch buffers.
func (f *SparseLU) SolveRefinedTo(dst []float64, a *CSC, b []float64, iters int) error {
	if err := f.SolveTo(dst, b); err != nil {
		return err
	}
	if iters <= 0 {
		return nil
	}
	if f.resid == nil {
		f.resid = make([]float64, f.n)
		f.corr = make([]float64, f.n)
	}
	for k := 0; k < iters; k++ {
		// resid = b - A dst
		a.MulVecTo(f.resid, dst)
		for i := range f.resid {
			f.resid[i] = b[i] - f.resid[i]
		}
		if NormInf(f.resid) == 0 {
			break
		}
		if err := f.SolveTo(f.corr, f.resid); err != nil {
			return err
		}
		AxpY(1, f.corr, dst)
	}
	return nil
}

// SolveSparse factorises a and solves a single right-hand side.
func SolveSparse(a *CSC, b []float64) ([]float64, error) {
	f, err := FactorizeSparse(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveSparseRefined factorises a and solves with two rounds of iterative
// refinement.
func SolveSparseRefined(a *CSC, b []float64) ([]float64, error) {
	f, err := FactorizeSparse(a)
	if err != nil {
		return nil, err
	}
	return f.SolveRefined(a, b, 2)
}

// ResidualNorm returns ||A x - b||_inf, used by tests and by the iterative
// refinement step of the MNA solver.
func ResidualNorm(a *CSC, x, b []float64) float64 {
	ax := a.MulVec(x)
	return NormInf(Sub(ax, b))
}
