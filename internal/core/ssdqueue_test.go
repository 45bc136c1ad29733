package core

// Tests for the cache SSD's command queue (ssdqueue.go), driven through
// Manager.ssdRead/ssdWrite/ssdTrim over a device whose every call costs what
// the test scripts.

import (
	"slices"
	"testing"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// scriptedDevice is a storage.Device and Trimmer whose next call returns
// the service time lat, or fails when fail is set. It stores nothing.
type scriptedDevice struct {
	size int64
	lat  time.Duration
	fail bool
}

func (d *scriptedDevice) Name() string { return "scripted" }
func (d *scriptedDevice) Size() int64  { return d.size }

func (d *scriptedDevice) call() (time.Duration, error) {
	if d.fail {
		return 0, errFlaky
	}
	return d.lat, nil
}

func (d *scriptedDevice) ReadAt([]byte, int64) (time.Duration, error)  { return d.call() }
func (d *scriptedDevice) WriteAt([]byte, int64) (time.Duration, error) { return d.call() }
func (d *scriptedDevice) Trim(int64, int64) (time.Duration, error)     { return d.call() }

// queueRig is a manager over a scriptedDevice with the shared clock's
// advances summed per component.
type queueRig struct {
	*fixture
	dev    *scriptedDevice
	attrib [simclock.NumComponents]time.Duration
}

func newQueueRig(t *testing.T) *queueRig {
	t.Helper()
	r := &queueRig{}
	r.fixture = newFaultFixture(t, testConfig(PolicyCBLRU), func(inner storage.Device) storage.Device {
		r.dev = &scriptedDevice{size: inner.Size()}
		return r.dev
	})
	r.clock.OnAdvance(func(c simclock.Component, d time.Duration) { r.attrib[c] += d })
	return r
}

// Queue-test operations.
const (
	opRead  = iota // foreground read of service time d
	opWrite        // background write of service time d
	opTrim         // background trim of service time d
	opIdle         // d of simulated time spent elsewhere (HDD, CPU)
	opFailRead
	opFailWrite
	opFailTrim
)

// do performs one operation and returns the shared-clock time it took.
func (r *queueRig) do(op int, d time.Duration) time.Duration {
	start := r.clock.Now()
	r.dev.lat, r.dev.fail = d, op >= opFailRead
	var buf [1]byte
	switch op {
	case opRead, opFailRead:
		_ = r.m.ssdRead(buf[:], 0) // the error is the scripted one; its accounting is asserted
	case opWrite, opFailWrite:
		_ = r.m.ssdWrite(buf[:], 0) // as above
	case opTrim, opFailTrim:
		r.m.ssdTrim(0, 1)
	case opIdle:
		r.clock.AdvanceAttr(d, simclock.CompHDDSeek)
	}
	return r.clock.Now() - start
}

// outstanding returns the remaining service time of every queued command,
// oldest first, as of now.
func (r *queueRig) outstanding() []time.Duration {
	q := &r.m.ssdq
	q.drain()
	out := make([]time.Duration, q.n)
	for i := range out {
		out[i] = q.pending[(q.head+i)%ssdQueueDepth]
	}
	return out
}

const (
	us = time.Microsecond
	ms = time.Millisecond
)

// queueStep is one operation with what it must cost its issuer, how much of
// that is a stall, and what must be left in the queue afterwards.
type queueStep struct {
	op      int
	d       time.Duration
	elapsed time.Duration
	stall   time.Duration
	queue   []time.Duration
}

// fill returns n commands of d each.
func fill(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestSSDQueueRules(t *testing.T) {
	full := make([]queueStep, ssdQueueDepth)
	for i := range full {
		full[i] = queueStep{op: opWrite, d: ms, queue: fill(i+1, ms)}
	}
	for _, tc := range []struct {
		name  string
		steps []queueStep
	}{
		{"empty queue: a read costs its service time", []queueStep{
			{op: opRead, d: 100 * us, elapsed: 100 * us},
			{op: opIdle, d: ms, elapsed: ms},
			{op: opRead, d: 300 * us, elapsed: 300 * us},
		}},
		{"a read goes ahead of the backlog and delays it by its service time", []queueStep{
			{op: opWrite, d: 5 * ms, queue: []time.Duration{5 * ms}},
			{op: opRead, d: 100 * us, elapsed: 100 * us, queue: []time.Duration{5 * ms}},
			{op: opIdle, d: 2 * ms, elapsed: 2 * ms, queue: []time.Duration{3 * ms}},
			{op: opRead, d: 100 * us, elapsed: 100 * us, queue: []time.Duration{3 * ms}},
			{op: opIdle, d: 3*ms - 1, elapsed: 3*ms - 1, queue: []time.Duration{1}},
			{op: opIdle, d: 1, elapsed: 1},
		}},
		{"idle time drains commands in issue order", []queueStep{
			{op: opWrite, d: 1 * ms, queue: []time.Duration{1 * ms}},
			{op: opTrim, d: 2 * ms, queue: []time.Duration{1 * ms, 2 * ms}},
			{op: opWrite, d: 3 * ms, queue: []time.Duration{1 * ms, 2 * ms, 3 * ms}},
			{op: opIdle, d: 1500 * us, elapsed: 1500 * us, queue: []time.Duration{1500 * us, 3 * ms}},
			{op: opWrite, d: 4 * ms, queue: []time.Duration{1500 * us, 3 * ms, 4 * ms}},
			{op: opIdle, d: 5 * ms, elapsed: 5 * ms, queue: []time.Duration{3500 * us}},
			{op: opIdle, d: time.Second, elapsed: time.Second},
			{op: opWrite, d: 1 * ms, queue: []time.Duration{1 * ms}},
		}},
		{"one command over the depth stalls its issuer until the oldest completes", append(slices.Clone(full),
			queueStep{op: opWrite, d: 7 * ms, elapsed: ms, stall: ms, queue: append(fill(ssdQueueDepth-1, ms), 7*ms)},
			queueStep{op: opIdle, d: 400 * us, elapsed: 400 * us, queue: append(append([]time.Duration{600 * us}, fill(ssdQueueDepth-2, ms)...), 7*ms)},
			queueStep{op: opTrim, d: 2 * ms, elapsed: 600 * us, stall: 600 * us, queue: append(fill(ssdQueueDepth-2, ms), 7*ms, 2*ms)},
			queueStep{op: opRead, d: 50 * us, elapsed: 50 * us, queue: append(fill(ssdQueueDepth-2, ms), 7*ms, 2*ms)},
		)},
		{"a failed device call queues and charges nothing", []queueStep{
			{op: opFailWrite},
			{op: opFailTrim},
			{op: opFailRead},
			{op: opWrite, d: ms, queue: []time.Duration{ms}},
			{op: opFailWrite, d: 9 * ms, queue: []time.Duration{ms}},
			{op: opFailRead, d: 9 * ms, queue: []time.Duration{ms}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newQueueRig(t)
			for i, s := range tc.steps {
				stall0, read0 := r.attrib[simclock.CompSSDEraseStall], r.attrib[simclock.CompSSDRead]
				if got := r.do(s.op, s.d); got != s.elapsed {
					t.Fatalf("step %d: took %v, want %v", i, got, s.elapsed)
				}
				if got := r.attrib[simclock.CompSSDEraseStall] - stall0; got != s.stall {
					t.Fatalf("step %d: %v attributed to ssd_erase_stall, want %v", i, got, s.stall)
				}
				wantRead := time.Duration(0)
				if s.op == opRead {
					wantRead = s.d
				}
				if got := r.attrib[simclock.CompSSDRead] - read0; got != wantRead {
					t.Fatalf("step %d: %v attributed to ssd_read, want %v", i, got, wantRead)
				}
				if got := r.outstanding(); !slices.Equal(got, s.queue) {
					t.Fatalf("step %d: queue %v, want %v", i, got, s.queue)
				}
			}
			if tc.steps[0].op == opFailWrite {
				st := r.m.Stats()
				if st.SSDWriteErrors != 2 || st.SSDTrimErrors != 1 || st.SSDReadErrors != 2 {
					t.Fatalf("errors write=%d trim=%d read=%d, want 2/1/2", st.SSDWriteErrors, st.SSDTrimErrors, st.SSDReadErrors)
				}
			}
		})
	}
}

// TestSSDQueueConservesWork drives a seeded random mix of reads, background
// commands and idle time, grouped into queries, against a naive model of
// the three rules (a slice, re-sliced and appended). After every operation
// the queue equals the model's; every read costs exactly its service time
// (rule 1); every query's attribution sums to its elapsed time; and at
// quiescence the background service time the device returned equals the
// time the model device spent draining plus the time issuers were stalled.
func TestSSDQueueConservesWork(t *testing.T) {
	r := newQueueRig(t)
	rng := simclock.NewRNG(21)
	var model []time.Duration
	var issued, drained, stalled time.Duration
	// work gives the model device d of read-free time and adds what it
	// spent of it to *spent.
	work := func(d time.Duration, spent *time.Duration) {
		for len(model) > 0 && d > 0 {
			step := min(d, model[0])
			model[0] -= step
			d -= step
			*spent += step
			if model[0] == 0 {
				model = model[1:]
			}
		}
	}
	for query := 0; query < 400; query++ {
		start, attrib0 := r.clock.Now(), r.attrib
		for n := 1 + rng.Intn(12); n > 0; n-- {
			d := time.Duration(1 + rng.Intn(int(3*ms)))
			op := []int{opRead, opRead, opWrite, opWrite, opWrite, opTrim, opIdle, opFailWrite}[rng.Intn(8)]
			if query%50 >= 40 {
				op = opIdle // a lull: lets the backlog run dry now and then
			}
			var wantElapsed time.Duration
			switch op {
			case opRead, opIdle:
				wantElapsed = d
			case opWrite, opTrim:
				if len(model) == ssdQueueDepth {
					wantElapsed = model[0]
					work(wantElapsed, &stalled)
				}
				model = append(model, d)
				issued += d
			}
			if got := r.do(op, d); got != wantElapsed {
				t.Fatalf("query %d: op %d of %v took %v, want %v", query, op, d, got, wantElapsed)
			}
			if op == opIdle {
				work(d, &drained)
			}
			if got := r.outstanding(); !slices.Equal(got, model) {
				t.Fatalf("query %d: queue %v, model %v", query, got, model)
			}
		}
		var sum time.Duration
		for c := range r.attrib {
			sum += r.attrib[c] - attrib0[c]
		}
		if elapsed := r.clock.Now() - start; sum != elapsed {
			t.Fatalf("query %d: attribution sums to %v, elapsed %v", query, sum, elapsed)
		}
	}
	if stalled == 0 || stalled != r.attrib[simclock.CompSSDEraseStall] {
		t.Fatalf("model stalled %v, clock attributed %v to ssd_erase_stall (want equal, non-zero)",
			stalled, r.attrib[simclock.CompSSDEraseStall])
	}
	r.do(opIdle, time.Minute)
	work(time.Minute, &drained)
	if len(r.outstanding()) != 0 || issued != drained+stalled {
		t.Fatalf("at quiescence: %d commands left; device returned %v of background work, drained %v + stalled %v = %v",
			len(r.outstanding()), issued, drained, stalled, drained+stalled)
	}
}
