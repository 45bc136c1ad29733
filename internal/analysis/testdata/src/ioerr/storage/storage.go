// Fixture support package: mirrors the real storage package's result
// contracts (device calls return (latency, error); allocator calls return
// a boolean success).
package storage

import "time"

type Device interface {
	Name() string
	ReadAt(p []byte, off int64) (time.Duration, error)
	WriteAt(p []byte, off int64) (time.Duration, error)
}

type Allocator struct{}

func (a *Allocator) Alloc(n int64) (int64, bool) { return 0, n == 0 }

func (a *Allocator) Free(off, n int64) {}

func CheckRange(size, off int64, n int) error { return nil }
