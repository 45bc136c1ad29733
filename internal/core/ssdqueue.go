package core

import (
	"time"

	"hybridstore/internal/simclock"
)

// ssdQueueDepth is the most background commands the cache SSD holds at once:
// the 32 tags of SATA native command queueing, the interface of the paper's
// Intel SSD 320 (Table II). A platform fact like Table III's latencies, not
// a tunable; DESIGN.md §6 records what other depths measure.
const ssdQueueDepth = 32

// ssdQueue is the cache SSD's command queue as its host sees it. The device
// sits on a private clock and returns each operation's service time; the
// queue decides when that time is spent on the shared clock, by three rules:
//
//  1. A foreground read is served ahead of queued background work and costs
//     the reader its own service time. Background work does not progress
//     while the read is on the device and resumes after it.
//  2. Background commands (flush writes, trims — with every GC copy, erase
//     and injected spike the device charged them) queue in issue order and
//     drain only during simulated time in which the device is not serving a
//     read, so no device work is dropped or done twice.
//  3. At most ssdQueueDepth commands are outstanding: the issuer of one more
//     waits, on the shared clock, until the oldest completes.
//
// The queue sees returned latencies only (it stands on the manager's side of
// storage.Device), so the residual of the program or erase in flight when a
// read arrives is not charged to the read.
type ssdQueue struct {
	clock *simclock.Clock
	// pending is a ring holding the remaining service time of every
	// outstanding background command; head is the oldest of the n.
	pending [ssdQueueDepth]time.Duration
	head, n int
	// asOf is the instant up to which the backlog has been drained.
	asOf time.Duration
}

// drain spends the simulated time that passed since asOf on the backlog,
// oldest command first.
func (q *ssdQueue) drain() {
	now := q.clock.Now()
	idle := now - q.asOf
	q.asOf = now
	for q.n > 0 {
		if q.pending[q.head] > idle {
			q.pending[q.head] -= idle
			return
		}
		idle -= q.pending[q.head]
		q.head = (q.head + 1) % ssdQueueDepth
		q.n--
	}
}

// read charges a foreground read of service time lat; the backlog stands
// still while it is on the device.
func (q *ssdQueue) read(lat time.Duration) {
	q.drain()
	q.asOf = q.clock.AdvanceAttr(lat, simclock.CompSSDRead)
}

// enqueue queues a background command of service time lat. With the queue
// full the issuer first waits for the oldest command to complete.
func (q *ssdQueue) enqueue(lat time.Duration) {
	q.drain()
	if q.n == ssdQueueDepth {
		q.clock.AdvanceAttr(q.pending[q.head], simclock.CompSSDEraseStall)
		q.drain()
	}
	q.pending[(q.head+q.n)%ssdQueueDepth] = lat
	q.n++
}
