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
// router or autoscaler polls — workers, queues, caches, sessions and
// per-backend latency windows.  Every scalar is read from the metrics
// registry, so it equals its /v1/metrics series; the raw counters are those
// series.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.svc.Metrics()
	read := func(name string, labels metrics.Labels) float64 {
		v, _ := m.Value(name, labels)
		return v
	}
	lane := func(name string) int { return int(read("analogflow_queue_depth", metrics.Labels{"lane": name})) }
	total, busy := int(read("analogflow_workers_effective", nil)), int(read("analogflow_workers_busy", nil))
	s.writeJSON(w, http.StatusOK, map[string]any{
		"version":        serverVersion,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"draining":       s.draining.Load(),
		"workers": statsWorkers{
			Total: total,
			Busy:  busy,
			Free:  total - busy,
			Queue: statsQueue{Urgent: lane("urgent"), Priority: lane("priority"), Normal: lane("normal")},
		},
		"cache": statsCache{
			Instances:        int(read("analogflow_cached_instances", nil)),
			Oracles:          int(read("analogflow_cached_oracles", nil)),
			InstanceHitRatio: read("analogflow_warm_hit_ratio", metrics.Labels{"cache": "instance"}),
		},
		"sessions": statsSessions{
			Live:              int(read("analogflow_sessions_live", nil)),
			Expired:           int64(read("analogflow_expired_sessions_total", nil)),
			ClientDisconnects: int64(read("analogflow_client_disconnects_total", nil)),
		},
		"backends":       s.svc.BackendWindows(),
		"throughput_rps": read("analogflow_throughput_rps", nil),
	})
}
