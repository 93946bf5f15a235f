package main

import (
	"net/http"
	"time"

	"analogflow/internal/metrics"
)

// handleMetrics serves the Prometheus text-format scrape (exposition format
// version 0.0.4) of every instrument the service and server registered.
// Exempt from the drain gate: scrapers keep watching a draining process.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := s.svc.Metrics().Render()
	w.Header().Set("Content-Type", metrics.TextContentType)
	if _, err := w.Write([]byte(body)); err != nil {
		s.disconnects.Inc()
	}
}

// statsWorkers is the worker-pool block of /v1/stats.
type statsWorkers struct {
	Total int        `json:"total"`
	Busy  int        `json:"busy"`
	Free  int        `json:"free"`
	Queue statsQueue `json:"queue"`
}

type statsQueue struct {
	Urgent   int `json:"urgent"`
	Priority int `json:"priority"`
	Normal   int `json:"normal"`
}

// statsCache is the warm-state block of /v1/stats.
type statsCache struct {
	Instances        int     `json:"instances"`
	Oracles          int     `json:"oracles"`
	InstanceHitRatio float64 `json:"instance_hit_ratio"`
}

// statsSessions is the session block of /v1/stats.
type statsSessions struct {
	Live              int   `json:"live"`
	Expired           int64 `json:"expired"`
	ClientDisconnects int64 `json:"client_disconnects"`
}

// handleStats serves the fleet-style JSON aggregate: the operator view a
// router or autoscaler polls — workers, queues, caches, sessions,
// per-backend latency windows — plus the full raw counter snapshot under
// "stats".
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.svc.Stats()
	s.mu.Lock()
	live := len(s.sessions)
	s.mu.Unlock()
	var hitRatio float64
	if total := stats.CacheHits + stats.CacheMisses; total > 0 {
		hitRatio = float64(stats.CacheHits) / float64(total)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"version":        serverVersion,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"draining":       s.draining.Load(),
		"workers": statsWorkers{
			Total: stats.EffectiveWorkers,
			Busy:  stats.BusyWorkers,
			Free:  stats.EffectiveWorkers - stats.BusyWorkers,
			Queue: statsQueue{
				Urgent:   stats.LaneDepths.Urgent,
				Priority: stats.LaneDepths.Priority,
				Normal:   stats.LaneDepths.Normal,
			},
		},
		"cache": statsCache{
			Instances:        stats.CachedInstances,
			Oracles:          stats.CachedOracles,
			InstanceHitRatio: hitRatio,
		},
		"sessions": statsSessions{
			Live:              live,
			Expired:           s.expired.Value(),
			ClientDisconnects: s.disconnects.Value(),
		},
		"backends":       stats.BackendWindows,
		"throughput_rps": stats.ThroughputRPS,
		"stats":          stats,
	})
}
