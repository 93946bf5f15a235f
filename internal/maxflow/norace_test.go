//go:build !race

package maxflow

const raceEnabled = false
