//go:build race

package maxflow

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// items put back, so pooled scratch may allocate.
const raceEnabled = true
