package maxflow

import "sync"

// Pooled scratch for the solver hot paths.  At 10^5–10^6 vertices the
// per-solve working set of each kernel is tens of megabytes; re-allocating it
// on every Service solve dominated the profile long before the algorithms
// did.  Each kernel therefore draws its scratch from a sync.Pool, growing the
// pooled arrays only when an instance exceeds every size seen before.
// Nothing pooled here retains pointers into a graph or residual after Put.

// growSlice returns s resized to length n, reusing its backing array when the
// capacity suffices.  Contents are unspecified; callers reinitialise.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var prStatePool sync.Pool

// getPRState returns a pushRelabelState sized and cleared for r.
func getPRState(r *residual) *pushRelabelState {
	st, _ := prStatePool.Get().(*pushRelabelState)
	if st == nil {
		st = &pushRelabelState{}
	}
	st.attach(r)
	return st
}

func putPRState(st *pushRelabelState) {
	st.r = nil
	prStatePool.Put(st)
}

// dinicScratch is the pooled per-solve state of runDinic: the level graph,
// the current-arc cursors, the BFS queue, and the DFS path stack.
type dinicScratch struct {
	level []int32
	iter  []int32
	queue []int32
	path  []int32 // arc indices along the active DFS path
}

var dinicScratchPool sync.Pool

func getDinicScratch(n int) *dinicScratch {
	sc, _ := dinicScratchPool.Get().(*dinicScratch)
	if sc == nil {
		sc = &dinicScratch{}
	}
	sc.level = growSlice(sc.level, n)
	sc.iter = growSlice(sc.iter, n)
	if cap(sc.queue) < n {
		sc.queue = make([]int32, 0, n)
	}
	return sc
}

func putDinicScratch(sc *dinicScratch) {
	dinicScratchPool.Put(sc)
}

// ekScratch is the pooled per-solve state of runEdmondsKarp.
type ekScratch struct {
	parentArc []int32
	queue     []int32
}

var ekScratchPool sync.Pool

func getEKScratch(n int) *ekScratch {
	sc, _ := ekScratchPool.Get().(*ekScratch)
	if sc == nil {
		sc = &ekScratch{}
	}
	sc.parentArc = growSlice(sc.parentArc, n)
	if cap(sc.queue) < n {
		sc.queue = make([]int32, 0, n)
	}
	return sc
}

func putEKScratch(sc *ekScratch) {
	ekScratchPool.Put(sc)
}

// certScratch is the pooled per-call state of Network.Certify.
type certScratch struct {
	balance []float64
	seen    []bool
	queue   []int32
}

var certScratchPool sync.Pool

func getCertScratch(n int) *certScratch {
	sc, _ := certScratchPool.Get().(*certScratch)
	if sc == nil {
		sc = &certScratch{}
	}
	sc.balance = growSlice(sc.balance, n)
	sc.seen = growSlice(sc.seen, n)
	if cap(sc.queue) < n {
		sc.queue = make([]int32, 0, n)
	}
	return sc
}

func putCertScratch(sc *certScratch) {
	certScratchPool.Put(sc)
}

// intScratchPool recycles |V|-sized int arrays: the position array of a
// residual's CSR adjacency build and the search arrays of a drain.  It holds
// the slices by pointer, so handing one back allocates nothing.
var intScratchPool sync.Pool

func getIntScratch(n int) *[]int {
	p, _ := intScratchPool.Get().(*[]int)
	if p == nil {
		p = new([]int)
	}
	*p = growSlice(*p, n)
	return p
}

func putIntScratch(p *[]int) {
	intScratchPool.Put(p)
}

// residualPool recycles whole residual networks — the arc array is by far
// the largest allocation of a solve.  newResidual draws from it; the
// one-shot entry points (SolveContext and friends) and Network.Release hand
// residuals back.
var residualPool sync.Pool

// release returns the residual's arrays to the pool.  The residual (and
// anything aliasing its arrays) must be dead; flow() copies its result out,
// so releasing after flow() is safe.
func (r *residual) release() {
	r.gdeps = nil
	residualPool.Put(r)
}
