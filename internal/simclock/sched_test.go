package simclock

import (
	"fmt"
	"testing"
	"time"
)

// TestEventQueueOrdering: events fire in (time, priority, insertion)
// order regardless of scheduling order — the contract the serving layer's
// replayed concurrency rests on.
func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	var fired []string
	rec := func(tag string) func(time.Duration) {
		return func(at time.Duration) { fired = append(fired, fmt.Sprintf("%s@%d", tag, at)) }
	}

	// Scheduled deliberately out of order.
	q.Schedule(30, 1, rec("late"))
	q.Schedule(10, 1, rec("b")) // same (time, prio) as "a": insertion breaks the tie
	q.Schedule(10, 0, rec("completion"))
	q.Schedule(10, 1, rec("c"))
	q.Schedule(20, 1, rec("mid"))
	if n := q.Run(); n != 5 {
		t.Fatalf("Run fired %d events, want 5", n)
	}
	want := []string{"completion@10", "b@10", "c@10", "mid@20", "late@30"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %q, want %q (full: %v)", i, fired[i], want[i], fired)
		}
	}
}

// TestEventQueueCascade: callbacks may schedule further events — Run keeps
// draining until nothing is pending, and same-time cascaded events fire
// after already-pending ones of equal priority (insertion order).
func TestEventQueueCascade(t *testing.T) {
	q := NewEventQueue()
	var fired []time.Duration
	var chain func(at time.Duration)
	chain = func(at time.Duration) {
		fired = append(fired, at)
		if at < 5 {
			q.Schedule(at+1, 0, chain)
		}
	}
	q.Schedule(1, 0, chain)
	if n := q.Run(); n != 5 {
		t.Fatalf("Run fired %d events, want 5", n)
	}
	for i, at := range fired {
		if at != time.Duration(i+1) {
			t.Fatalf("fired[%d] = %v, want %v", i, at, time.Duration(i+1))
		}
	}
	if q.RunNext() {
		t.Fatal("RunNext fired on an empty queue")
	}
}

// TestEventQueuePastScheduling: a callback at time t may schedule work at
// or before t; it fires next rather than being lost or reordered ahead of
// later-time events.
func TestEventQueuePastScheduling(t *testing.T) {
	q := NewEventQueue()
	var fired []string
	q.Schedule(10, 1, func(at time.Duration) {
		fired = append(fired, "t10")
		q.Schedule(5, 0, func(time.Duration) { fired = append(fired, "past") })
	})
	q.Schedule(20, 1, func(time.Duration) { fired = append(fired, "t20") })
	q.Run()
	want := []string{"t10", "past", "t20"}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}
