package disksim

import (
	"testing"

	"hybridstore/internal/simclock"
)

func BenchmarkHDDRandomRead(b *testing.B) {
	d := New("hdd", simclock.New(), DefaultParams(1<<30))
	rng := simclock.NewRNG(3)
	buf := make([]byte, 8<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(1<<20)) * 512
		if _, err := d.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}
