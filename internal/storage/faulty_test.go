package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hybridstore/internal/simclock"
)

// newFaultyMem builds a FaultyDevice over a fresh 1 MiB MemDevice.
func newFaultyMem(t *testing.T, spec FaultSpec) (*FaultyDevice, *MemDevice) {
	t.Helper()
	mem := NewMemDevice("ssd", 1<<20, simclock.New(), DefaultMemParams())
	return NewFaultyDevice(mem, spec, nil), mem
}

// trimMem adds a no-op Trim to MemDevice so trim injection is testable.
type trimMem struct {
	*MemDevice
	trims int
}

func (d *trimMem) Trim(off, n int64) (time.Duration, error) {
	d.trims++
	return 0, nil
}

func TestFaultSpecEnabled(t *testing.T) {
	if (FaultSpec{}).Enabled() {
		t.Fatal("zero spec reports enabled")
	}
	cases := []FaultSpec{
		{Read: 0.1},
		{Write: 0.1},
		{Trim: 1},
	}
	for i, s := range cases {
		if !s.Enabled() {
			t.Errorf("case %d: spec %+v reports disabled", i, s)
		}
	}
}

func TestFaultyZeroSpecTransparent(t *testing.T) {
	d, mem := newFaultyMem(t, FaultSpec{})
	want := []byte("pass-through payload")
	if _, err := d.WriteAt(want, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read back wrong bytes")
	}
	if fs := d.FaultStats(); fs != (FaultStats{}) {
		t.Fatalf("zero spec produced fault stats %+v", fs)
	}
	if d.Inner() != Device(mem) {
		t.Fatal("Inner() does not return the wrapped device")
	}
	if d.Name() != mem.Name() || d.Size() != mem.Size() {
		t.Fatal("Name/Size not forwarded")
	}
}

func TestFaultyDeterministicReplay(t *testing.T) {
	spec := FaultSpec{
		Seed:       42,
		Read:       0.3,
		Write:      0.3,
		StickyProb: 0.5,
	}
	run := func() ([]bool, FaultStats) {
		d, _ := newFaultyMem(t, spec)
		var outcomes []bool
		buf := make([]byte, 512)
		for i := 0; i < 500; i++ {
			off := int64(i%1000) * 512
			var err error
			if i%3 == 0 {
				_, err = d.WriteAt(buf, off)
			} else {
				_, err = d.ReadAt(buf, off)
			}
			outcomes = append(outcomes, err != nil)
		}
		return outcomes, d.FaultStats()
	}
	o1, s1 := run()
	o2, s2 := run()
	if s1 != s2 {
		t.Fatalf("fault stats diverge across identical runs: %+v vs %+v", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("op %d outcome diverges across identical runs", i)
		}
	}
	if s1.ReadErrors == 0 || s1.WriteErrors == 0 {
		t.Fatalf("expected injected errors at 30%%, got %+v", s1)
	}
}

func TestFaultyErrorRateRoughlyMatchesProbability(t *testing.T) {
	spec := FaultSpec{Seed: 7, Read: 0.25}
	d, _ := newFaultyMem(t, spec)
	buf := make([]byte, 64)
	const ops = 4000
	var fails int
	for i := 0; i < ops; i++ {
		if _, err := d.ReadAt(buf, int64(i%1000)*64); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("op %d: error %v is not ErrInjected", i, err)
			}
			fails++
		}
	}
	rate := float64(fails) / ops
	if rate < 0.15 || rate > 0.35 {
		t.Fatalf("observed error rate %.3f, want ~0.25", rate)
	}
	if got := d.FaultStats().ReadErrors; got != int64(fails) {
		t.Fatalf("ReadErrors %d != observed failures %d", got, fails)
	}
}

func TestFaultyWriteFailureHasNoSideEffects(t *testing.T) {
	d, mem := newFaultyMem(t, FaultSpec{Write: 1})
	if _, err := mem.WriteAt([]byte("baseline"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("overwrite"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("write did not fail: %v", err)
	}
	got := make([]byte, 8)
	if _, err := mem.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("baseline")) {
		t.Fatalf("failed write mutated device: %q", got)
	}
}

func TestFaultyStickyBadExtent(t *testing.T) {
	mem := NewMemDevice("ssd", 1<<20, simclock.New(), DefaultMemParams())
	inner := &trimMem{MemDevice: mem}
	d := NewFaultyDevice(inner, FaultSpec{
		Write:      1,
		StickyProb: 1,
	}, nil)

	// The first write fails and marks [0,+4096) sticky.
	if _, err := d.WriteAt(make([]byte, 4096), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("write did not fail: %v", err)
	}
	// Reads have no error probability of their own, so a failing read proves the
	// sticky extent (any overlap counts).
	buf := make([]byte, 64)
	if _, err := d.ReadAt(buf, 4000); !errors.Is(err, ErrInjected) {
		t.Fatalf("read overlapping bad extent did not fail: %v", err)
	}
	// Outside the extent, reads pass.
	if _, err := d.ReadAt(buf, 8192); err != nil {
		t.Fatalf("read outside bad extent failed: %v", err)
	}
	// Trim of the bad range still succeeds: discarding dead blocks is
	// always possible.
	if _, err := d.Trim(0, 4096); err != nil {
		t.Fatalf("trim over bad extent failed: %v", err)
	}
	if inner.trims != 1 {
		t.Fatalf("trim not forwarded: %d", inner.trims)
	}
	fs := d.FaultStats()
	if fs.BadExtents != 1 || fs.BadExtentHits != 1 {
		t.Fatalf("sticky accounting wrong: %+v", fs)
	}
}

func TestFaultyTrimWithoutTrimmer(t *testing.T) {
	d, _ := newFaultyMem(t, FaultSpec{})
	if _, err := d.Trim(0, 4096); err == nil {
		t.Fatal("trim on a non-Trimmer inner device succeeded")
	}
	if d.FaultStats().TrimErrors != 0 {
		t.Fatal("unsupported trim counted as injected error")
	}
}

// TestFaultyRangeCheckPrecedesInjection: an out-of-range access of any
// class fails with ErrOutOfRange, counts no injected error and draws
// nothing from the injector's RNG, so every later fault decision is the
// one a device that never saw the bad access makes.
func TestFaultyRangeCheckPrecedesInjection(t *testing.T) {
	type op func(d *FaultyDevice, off int64) error
	rows := []struct {
		name  string
		spec  func(float64) FaultSpec
		do    op
		count func(FaultStats) int64
	}{
		{"read", func(p float64) FaultSpec { return FaultSpec{Read: p} },
			func(d *FaultyDevice, off int64) error { _, err := d.ReadAt(make([]byte, 64), off); return err },
			func(fs FaultStats) int64 { return fs.ReadErrors }},
		{"write", func(p float64) FaultSpec { return FaultSpec{Write: p} },
			func(d *FaultyDevice, off int64) error { _, err := d.WriteAt(make([]byte, 64), off); return err },
			func(fs FaultStats) int64 { return fs.WriteErrors }},
		{"trim", func(p float64) FaultSpec { return FaultSpec{Trim: p} },
			func(d *FaultyDevice, off int64) error { _, err := d.Trim(off, 64); return err },
			func(fs FaultStats) int64 { return fs.TrimErrors }},
	}
	newDev := func(spec FaultSpec) *FaultyDevice {
		mem := NewMemDevice("ssd", 1<<20, simclock.New(), DefaultMemParams())
		return NewFaultyDevice(&trimMem{MemDevice: mem}, spec, nil)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			d := newDev(r.spec(1))
			if err := r.do(d, d.Size()); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("out-of-range %s: got %v, want ErrOutOfRange", r.name, err)
			}
			if n := r.count(d.FaultStats()); n != 0 {
				t.Fatalf("range violation counted as %d injected errors", n)
			}

			// Same seed, one device first sees an out-of-range access:
			// the in-range outcomes after it must not move.
			spec := r.spec(0.5)
			clean, probed := newDev(spec), newDev(spec)
			_ = r.do(probed, probed.Size())
			for i := int64(0); i < 64; i++ {
				want, got := r.do(clean, i*512) != nil, r.do(probed, i*512) != nil
				if got != want {
					t.Fatalf("in-range %s %d after an out-of-range one: failed=%v, want %v", r.name, i, got, want)
				}
			}
		})
	}
}
