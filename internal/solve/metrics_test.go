package solve

import (
	"testing"

	"analogflow/internal/metrics"
)

// MetricValue reads one counter or gauge series of svc's metrics registry;
// labels are key, value pairs.  A series the registry does not hold fails
// the test.  It is exported for the solve_test package's fault matrix.
func MetricValue(t testing.TB, svc *Service, name string, labels ...string) float64 {
	t.Helper()
	var l metrics.Labels
	for i := 0; i+1 < len(labels); i += 2 {
		if l == nil {
			l = metrics.Labels{}
		}
		l[labels[i]] = labels[i+1]
	}
	v, ok := svc.Metrics().Value(name, l)
	if !ok {
		t.Fatalf("metrics registry holds no series %s%v", name, l)
	}
	return v
}

// queueDepth is the admission queue's sheddable-waiter count: the priority
// and normal lanes (urgent waiters are never shed).
func queueDepth(t testing.TB, svc *Service) float64 {
	t.Helper()
	return MetricValue(t, svc, "analogflow_queue_depth", "lane", "priority") +
		MetricValue(t, svc, "analogflow_queue_depth", "lane", "normal")
}

// plannerCounters reads the partition planner's planned and sharded solve
// counts.
func plannerCounters(t testing.TB, svc *Service) (planned, sharded float64) {
	t.Helper()
	return MetricValue(t, svc, "analogflow_planned_solves_total"), MetricValue(t, svc, "analogflow_sharded_solves_total")
}
