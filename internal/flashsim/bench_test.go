package flashsim

import (
	"testing"

	"hybridstore/internal/simclock"
)

func BenchmarkSSDSequentialBlockWrite(b *testing.B) {
	d := New("ssd", simclock.New(), DefaultParams(64<<20))
	buf := make([]byte, 128<<10)
	size := d.Size()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if _, err := d.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
		off += int64(len(buf))
		if off+int64(len(buf)) > size {
			off = 0
		}
	}
}

func BenchmarkSSDRandomPageWrite(b *testing.B) {
	d := New("ssd", simclock.New(), DefaultParams(64<<20))
	rng := simclock.NewRNG(1)
	buf := make([]byte, 2<<10)
	pages := int(d.Size() / int64(len(buf)))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(pages)) * int64(len(buf))
		if _, err := d.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDRandomRead(b *testing.B) {
	d := New("ssd", simclock.New(), DefaultParams(64<<20))
	buf := make([]byte, 8<<10)
	for off := int64(0); off+int64(len(buf)) <= d.Size(); off += int64(len(buf)) {
		if _, err := d.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
	rng := simclock.NewRNG(2)
	chunks := int(d.Size() / int64(len(buf)))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(chunks)) * int64(len(buf))
		if _, err := d.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}
