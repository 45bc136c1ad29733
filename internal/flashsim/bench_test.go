package flashsim

import (
	"testing"

	"hybridstore/internal/simclock"
)

// seededBytes returns n seeded bytes, none of them zero, so a page of them is
// stored as bytes and not as a zero page.
func seededBytes(n int, seed uint64) []byte {
	rng := simclock.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + rng.Intn(255))
	}
	return b
}

func BenchmarkSSDSequentialBlockWrite(b *testing.B) {
	d := New("ssd", simclock.New(), DefaultParams(64<<20))
	buf := seededBytes(128<<10, 3)
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
	buf := seededBytes(2<<10, 4)
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

// benchRandomRead fills the drive with copies of chunk and times reads of
// random whole chunks.
func benchRandomRead(b *testing.B, chunk []byte) {
	d := New("ssd", simclock.New(), DefaultParams(64<<20))
	n := int64(len(chunk))
	for off := int64(0); off+n <= d.Size(); off += n {
		if _, err := d.WriteAt(chunk, off); err != nil {
			b.Fatal(err)
		}
	}
	rng := simclock.NewRNG(2)
	chunks := int(d.Size() / n)
	buf := make([]byte, n)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ReadAt(buf, int64(rng.Intn(chunks))*n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSDRandomRead(b *testing.B) { benchRandomRead(b, seededBytes(8<<10, 5)) }

// BenchmarkSSDResultEntryRead reads result-cache entries as the cache stores
// them: 20 KiB, the first page holding the header and 50 records (416 bytes)
// and the other nine pages zero padding.
func BenchmarkSSDResultEntryRead(b *testing.B) {
	entry := make([]byte, 20<<10)
	copy(entry, seededBytes(16+50*8, 6))
	benchRandomRead(b, entry)
}
