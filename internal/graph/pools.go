package graph

import "sync"

// Pooled scratch for the per-solve analysis passes (prune, depth estimates).
// These run once per quantized solve in the hot path of the sweeps, and at
// 10^5–10^6 vertices their transient slices dominated the allocation profile.
// Only buffers whose contents die with the call are pooled; retained artifacts
// (the pruned graph, edge/vertex maps) are always freshly allocated.

// growInts returns s resized to n with unspecified contents, reusing the
// backing array when it is large enough; callers must overwrite every element.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growBoolsCleared returns s resized to n with every element false, reusing
// the backing array when it is large enough.
func growBoolsCleared(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// pruneScratch holds every transient buffer of one pruneToSTCore pass.
type pruneScratch struct {
	reachFromS, reachToT, keepVertex []bool
	newIndex, stack                  []int
}

var pruneScratchPool = sync.Pool{New: func() any { return new(pruneScratch) }}

// bfsScratch holds the distance/queue buffers of the depth estimators.
type bfsScratch struct {
	dist  []int
	queue []int
}

var bfsScratchPool = sync.Pool{New: func() any { return new(bfsScratch) }}
