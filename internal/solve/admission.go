package solve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded is the sentinel a shed request fails with: the admission
// queue judged that the request could not start before its deadline (or the
// queue itself is full), so it was rejected without ever consuming a worker
// slot.  Match with errors.Is; the concrete *OverloadError carries the
// queue state the decision was made on.
var ErrOverloaded = errors.New("solve: service overloaded")

// OverloadError is a load-shedding rejection.  RetryAfter is the admission
// queue's estimate of when capacity frees up — analogflowd surfaces it as an
// HTTP Retry-After header on the 429 it maps this error to.
type OverloadError struct {
	// QueueDepth is the number of sheddable requests that were already
	// queued when this one was rejected.
	QueueDepth int
	// EstimatedWait is queue depth × the backend's recent-latency EMA —
	// the wait the deadline could not absorb (zero for a full-queue shed).
	EstimatedWait time.Duration
	// RetryAfter is the suggested back-off before retrying.
	RetryAfter time.Duration
	// Reason distinguishes "deadline" (estimated wait exceeds the request
	// deadline) from "queue full" (bounded admission queue at capacity).
	Reason string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("solve: overloaded (%s): queue depth %d, estimated wait %v",
		e.Reason, e.QueueDepth, e.EstimatedWait)
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Admission lanes, highest priority first.  Urgent is internal: region
// solves of an in-flight sharded request and the coordinator's slot
// re-acquisition — work that a running request depends on for progress, so
// it is never shed and always granted ahead of queued requests.  Priority
// carries Update steps (warm session traffic), so a session chain is never
// shed behind a backlog of cold batch solves.  Normal carries Solve traffic.
const (
	laneUrgent = iota
	lanePriority
	laneNormal
	numLanes
)

// waiter is one queued acquire; grant is closed exactly once when a slot is
// handed to it.
type waiter struct {
	grant chan struct{}
}

// admitter is the bounded admission queue in front of the worker pool: a
// counting semaphore with priority lanes, deadline-aware shedding, and a cap
// on how many sheddable requests may queue.  Slots are handed off directly
// from release to the longest-waiting highest-lane waiter, so the invariant
// "waiters exist only while every slot is in use" holds and a free slot
// always admits immediately.
type admitter struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	// queued counts sheddable (priority + normal) waiters against maxQueue;
	// urgent waiters are exempt — shedding them would wedge the sharded
	// request that owns them.
	queued   int
	maxQueue int
	lanes    [numLanes][]*waiter
}

func newAdmitter(capacity, maxQueue int) *admitter {
	if maxQueue <= 0 {
		maxQueue = 8 * capacity
	}
	return &admitter{capacity: capacity, maxQueue: maxQueue}
}

// acquire takes one worker slot, queueing in the given lane when none is
// free.  For sheddable lanes the admission decision happens before queueing:
// a full queue, or a deadline the estimated wait (queue position × estPer)
// already overruns, rejects with *OverloadError without consuming anything.
// estPer <= 0 means "no latency estimate yet" and disables the deadline
// check (the first requests against a cold backend are always admitted).
// The context bounds the queue wait; lane-urgent acquires are never shed but
// still honor cancellation.
func (a *admitter) acquire(ctx context.Context, lane int, deadline time.Time, estPer time.Duration) error {
	a.mu.Lock()
	if a.inUse < a.capacity {
		a.inUse++
		a.mu.Unlock()
		return nil
	}
	if lane != laneUrgent {
		if a.queued >= a.maxQueue {
			depth := a.queued
			a.mu.Unlock()
			return &OverloadError{
				QueueDepth: depth,
				RetryAfter: estPer,
				Reason:     "queue full",
			}
		}
		if !deadline.IsZero() && estPer > 0 {
			// Position among waiters that will be served before us: every
			// waiter in a same-or-higher-priority lane.
			pos := 0
			for l := laneUrgent; l <= lane; l++ {
				pos += len(a.lanes[l])
			}
			// Slots free in waves of `capacity`; this request starts after
			// ceil((pos+1)/capacity) waves of the backend's typical latency.
			waves := (pos + a.capacity) / a.capacity
			est := estPer * time.Duration(waves)
			if time.Now().Add(est).After(deadline) {
				depth := a.queued
				a.mu.Unlock()
				return &OverloadError{
					QueueDepth:    depth,
					EstimatedWait: est,
					RetryAfter:    est,
					Reason:        "deadline",
				}
			}
		}
		a.queued++
	}
	w := &waiter{grant: make(chan struct{})}
	a.lanes[lane] = append(a.lanes[lane], w)
	a.mu.Unlock()

	select {
	case <-w.grant:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if a.remove(lane, w) {
			a.mu.Unlock()
			return ctx.Err()
		}
		a.mu.Unlock()
		// Lost the race: release already granted us the slot.  Take it and
		// hand it straight back so the next waiter runs.
		<-w.grant
		a.release()
		return ctx.Err()
	}
}

// acquireBlocking takes a slot in the given lane unconditionally — no
// shedding, no cancellation.  It exists for the coordinator's slot
// re-acquisition after a region fan-out, which must succeed for the caller's
// balanced release (slot holders are live solves that terminate, so the wait
// is bounded).
func (a *admitter) acquireBlocking(lane int) {
	a.mu.Lock()
	if a.inUse < a.capacity {
		a.inUse++
		a.mu.Unlock()
		return
	}
	w := &waiter{grant: make(chan struct{})}
	a.lanes[lane] = append(a.lanes[lane], w)
	a.mu.Unlock()
	<-w.grant
}

// release returns one slot, handing it directly to the longest-waiting
// waiter in the highest-priority non-empty lane, or freeing it when no one
// waits.
func (a *admitter) release() {
	a.mu.Lock()
	if w := a.popLocked(); w != nil {
		a.mu.Unlock()
		close(w.grant)
		return
	}
	a.inUse--
	a.mu.Unlock()
}

// popLocked dequeues the longest-waiting waiter in the highest-priority
// non-empty lane, or nil.  Callers hold a.mu.
func (a *admitter) popLocked() *waiter {
	for lane := 0; lane < numLanes; lane++ {
		if len(a.lanes[lane]) == 0 {
			continue
		}
		w := a.lanes[lane][0]
		a.lanes[lane] = a.lanes[lane][1:]
		if lane != laneUrgent {
			a.queued--
		}
		return w
	}
	return nil
}

// remove unqueues w from lane; false means w was already granted.  Callers
// hold a.mu.
func (a *admitter) remove(lane int, w *waiter) bool {
	for i, q := range a.lanes[lane] {
		if q == w {
			a.lanes[lane] = append(a.lanes[lane][:i], a.lanes[lane][i+1:]...)
			if lane != laneUrgent {
				a.queued--
			}
			return true
		}
	}
	return false
}

// laneDepths reports the waiter count per lane (urgent waiters included).
func (a *admitter) laneDepths() [numLanes]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	var d [numLanes]int
	for l := range a.lanes {
		d[l] = len(a.lanes[l])
	}
	return d
}

// busy reports how many slots are currently held.
func (a *admitter) busy() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}
