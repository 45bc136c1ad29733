package simclock

import (
	"sync"
	"sync/atomic"
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

// TestClockConcurrentAdvance: advances from many goroutines sum exactly, the
// hook sees every non-zero delta once and no zero one, and installing and
// removing a hook while others advance is race-free (go test -race).
func TestClockConcurrentAdvance(t *testing.T) {
	c := New()
	const workers = 8
	const perWorker = 10_000
	// Worker w advances by w, w+1, ..., w+perWorker-1 ns, starting at zero:
	// worker 0's first advance moves nothing and must not reach the hook.
	var want time.Duration
	for w := 0; w < workers; w++ {
		for j := 0; j < perWorker; j++ {
			want += time.Duration(w + j)
		}
	}
	var calls, sum atomic.Int64
	c.OnAdvance(func(comp Component, d time.Duration) {
		if comp != CompSSDRead || d <= 0 {
			t.Errorf("hook saw %v of %v", d, comp)
		}
		calls.Add(1)
		sum.Add(int64(d))
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.AdvanceAttr(time.Duration(w+j), CompSSDRead)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != want {
		t.Fatalf("Now = %v, want %v", got, want)
	}
	if got := calls.Load(); got != workers*perWorker-1 {
		t.Fatalf("hook ran %d times, want %d (every non-zero advance once)", got, workers*perWorker-1)
	}
	if got := time.Duration(sum.Load()); got != want {
		t.Fatalf("hook summed %v, want %v", got, want)
	}

	// Swap the hook in and out while advancing.
	c.OnAdvance(nil)
	var swapped atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				c.OnAdvance(func(Component, time.Duration) { swapped.Add(1) })
			} else {
				c.OnAdvance(nil)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.AdvanceAttr(time.Nanosecond, CompOther)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	if got := c.Now(); got != want+workers*perWorker {
		t.Fatalf("Now = %v after the swapping phase, want %v", got, want+workers*perWorker)
	}
	if got := swapped.Load(); got > workers*perWorker {
		t.Fatalf("swapped hooks ran %d times for %d advances", got, workers*perWorker)
	}
}

// nowSink keeps BenchmarkClockAdvance's Now from being optimized away.
var nowSink time.Duration

// BenchmarkClockAdvance times one AdvanceAttr and one Now, the pair a device
// operation costs the clock, with no hook and with one installed.
func BenchmarkClockAdvance(b *testing.B) {
	for _, hooked := range []bool{false, true} {
		name := "hook=none"
		if hooked {
			name = "hook=set"
		}
		b.Run(name, func(b *testing.B) {
			c := New()
			var seen time.Duration
			if hooked {
				c.OnAdvance(func(_ Component, d time.Duration) { seen += d })
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.AdvanceAttr(time.Nanosecond, CompSSDRead)
				nowSink = c.Now()
			}
			if hooked && seen != c.Now() {
				b.Fatalf("hook saw %v of %v", seen, c.Now())
			}
		})
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
