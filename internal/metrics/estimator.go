package metrics

import (
	"sync"
	"time"
)

// EMA is a classic fixed-alpha exponential moving average. The first
// observation seeds the average directly.
type EMA struct {
	mu    sync.Mutex
	alpha float64
	v     float64
	n     int64
}

// NewEMA returns an EMA with the given smoothing factor (0 < alpha <= 1).
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: EMA alpha must be in (0, 1]")
	}
	return &EMA{alpha: alpha}
}

// Observe folds one sample into the average.
func (e *EMA) Observe(x float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.v = x
	} else {
		e.v = e.alpha*x + (1-e.alpha)*e.v
	}
	e.n++
}

// Value returns the current average (0 before any observation).
func (e *EMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v
}

// Count returns the number of observations folded in.
func (e *EMA) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Meter measures an event rate (events/second) over a sliding pair of
// fixed intervals: the finished previous interval anchors the rate and the
// in-progress one is blended in proportionally, so the reading is smooth
// without keeping per-event timestamps.
type Meter struct {
	mu       sync.Mutex
	interval time.Duration
	start    time.Time // start of the current interval
	cur      int64     // events in the current interval
	prev     int64     // events in the finished previous interval
	primed   bool      // a full interval has completed
}

// NewMeter returns a meter with the given measurement interval.
func NewMeter(interval time.Duration) *Meter {
	if interval <= 0 {
		panic("metrics: Meter interval must be positive")
	}
	return &Meter{interval: interval}
}

// Mark records n events now.
func (m *Meter) Mark(n int64) { m.MarkAt(time.Now(), n) }

// MarkAt records n events at an explicit time, for deterministic tests.
func (m *Meter) MarkAt(t time.Time, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rollAt(t)
	m.cur += n
}

// Rate returns the current events/second estimate.
func (m *Meter) Rate() float64 { return m.RateAt(time.Now()) }

// RateAt returns the events/second estimate as of an explicit time.
func (m *Meter) RateAt(t time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rollAt(t)
	elapsed := t.Sub(m.start)
	if elapsed < 0 {
		elapsed = 0
	}
	frac := float64(elapsed) / float64(m.interval)
	if frac > 1 {
		frac = 1
	}
	iv := m.interval.Seconds()
	if !m.primed {
		// Only a partial interval exists; scale by observed time so early
		// readings are not wildly deflated, but guard tiny denominators.
		sec := elapsed.Seconds()
		if sec < iv/10 {
			sec = iv / 10
		}
		return float64(m.cur) / sec
	}
	// Blend: the previous interval fades out as the current one fills in.
	return (float64(m.prev)*(1-frac) + float64(m.cur)) / iv
}

// rollAt advances interval boundaries; callers hold m.mu.
func (m *Meter) rollAt(t time.Time) {
	if m.start.IsZero() {
		m.start = t
		return
	}
	for t.Sub(m.start) >= m.interval {
		m.prev = m.cur
		m.cur = 0
		m.start = m.start.Add(m.interval)
		m.primed = true
		// If more than one whole interval passed, the "previous" interval
		// is stale too; a second loop iteration zeroes it.
	}
}
