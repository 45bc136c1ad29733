package simclock

import (
	"container/heap"
	"time"
)

// EventQueue is a deterministic discrete-event scheduler over the simulated
// timeline. Events fire in (time, priority, insertion) order: earlier
// simulated time first, then lower priority value, then first-scheduled
// first. Because ties are broken by explicit priority and insertion
// sequence — never by heap internals or map order — two runs that schedule
// the same events observe the same firing order, which is what lets the
// serving layer model concurrency (queued arrivals, overlapping
// completions) while keeping simulated time exact and replayable.
//
// An event callback may schedule further events; Run keeps firing until
// the queue drains. EventQueue is not safe for concurrent use: the whole
// point is that one goroutine replays the concurrent world serially.
type EventQueue struct {
	h eventHeap
}

// An event is one scheduled callback.
type event struct {
	at   time.Duration
	prio int
	seq  uint64
	fn   func(at time.Duration)
}

type eventHeap struct {
	events []event
	seq    uint64
}

func (h eventHeap) Len() int { return len(h.events) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}
func (h eventHeap) Swap(i, j int) { h.events[i], h.events[j] = h.events[j], h.events[i] }
func (h *eventHeap) Push(x any)   { h.events = append(h.events, x.(event)) }
func (h *eventHeap) Pop() any {
	old := h.events
	n := len(old)
	e := old[n-1]
	h.events = old[:n-1]
	return e
}

// NewEventQueue returns an empty scheduler.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Schedule enqueues fn to fire at simulated time at with the given
// priority (lower fires first among same-time events). Scheduling in the
// past is legal — the event simply fires next — because a callback
// processing time t may produce work that logically belongs at t.
func (q *EventQueue) Schedule(at time.Duration, prio int, fn func(at time.Duration)) {
	q.h.seq++
	heap.Push(&q.h, event{at: at, prio: prio, seq: q.h.seq, fn: fn})
}

// RunNext pops and fires the earliest event. It reports whether an event
// fired (false means the queue was empty).
func (q *EventQueue) RunNext() bool {
	if q.h.Len() == 0 {
		return false
	}
	e := heap.Pop(&q.h).(event)
	e.fn(e.at)
	return true
}

// Run fires events until the queue drains, including events scheduled by
// the callbacks themselves. It returns the number of events fired.
func (q *EventQueue) Run() int {
	n := 0
	for q.RunNext() {
		n++
	}
	return n
}
