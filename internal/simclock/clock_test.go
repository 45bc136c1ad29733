package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock at %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := New()
	if got := c.AdvanceAttr(5*time.Millisecond, CompOther); got != 5*time.Millisecond {
		t.Fatalf("AdvanceAttr returned %v, want 5ms", got)
	}
	c.AdvanceAttr(20*time.Microsecond, CompOther)
	want := 5*time.Millisecond + 20*time.Microsecond
	if got := c.Now(); got != want {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

func TestClockAdvanceZeroIsNoop(t *testing.T) {
	c := New()
	c.AdvanceAttr(time.Second, CompOther)
	c.AdvanceAttr(0, CompOther)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now = %v, want 1s", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceAttr(-1) did not panic")
		}
	}()
	New().AdvanceAttr(-1, CompOther)
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.AdvanceAttr(time.Nanosecond, CompOther)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != workers*perWorker*time.Nanosecond {
		t.Fatalf("Now = %v, want %v", got, workers*perWorker*time.Nanosecond)
	}
}

func TestStopwatch(t *testing.T) {
	c := New()
	sw := StartStopwatch(c)
	c.AdvanceAttr(3*time.Millisecond, CompOther)
	if got := sw.Elapsed(); got != 3*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 3ms", got)
	}
	c.AdvanceAttr(time.Millisecond, CompOther)
	if got := sw.Elapsed(); got != 4*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 4ms", got)
	}
}
