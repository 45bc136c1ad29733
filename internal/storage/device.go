// Package storage defines the block-device abstraction shared by the HDD
// and SSD simulators and by the cache hierarchy built on top of them.
//
// A Device stores real bytes — reads return what writes stored — and
// charges every operation's cost against a shared simulated clock
// (internal/simclock). Returning the charged latency from each call lets
// callers attribute device time to higher-level operations (a query, a
// cache flush) without re-deriving it.
package storage

import (
	"errors"
	"fmt"
	"time"
)

// OpKind identifies one class of device operation for tracing and stats.
type OpKind uint8

// The operation kinds recorded by devices.
const (
	OpRead OpKind = iota
	OpWrite
	OpTrim
	OpErase // internal to SSDs; surfaced for wear accounting
)

// String returns the lowercase name of the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op describes one completed device operation. Offset and Len are in bytes.
type Op struct {
	Device  string
	Kind    OpKind
	Offset  int64
	Len     int
	Latency time.Duration
	// Seek is true when the operation paid mechanical positioning cost
	// (HDD head movement + rotation). Always false on solid-state devices.
	Seek bool
}

// Device is a byte-addressed simulated block device.
//
// Implementations advance their simulated clock by the cost of each
// operation and return that cost. Offsets and lengths are validated against
// the device size; partial I/O never occurs — an operation either fully
// succeeds or fails without side effects.
type Device interface {
	// Name identifies the device in traces and error messages.
	Name() string
	// Size returns the device capacity in bytes.
	Size() int64
	// ReadAt fills p with the bytes at off and returns the simulated cost.
	ReadAt(p []byte, off int64) (time.Duration, error)
	// WriteAt stores a copy of p at off and returns the simulated cost. The
	// device must not retain p: callers reuse the buffer for the next write.
	WriteAt(p []byte, off int64) (time.Duration, error)
}

// Trimmer is implemented by devices that support discarding a byte range
// (SSD Trim). Trimmed ranges read back as zeros.
type Trimmer interface {
	Trim(off int64, n int64) (time.Duration, error)
}

// ErrOutOfRange reports an access beyond the device capacity.
var ErrOutOfRange = errors.New("storage: access out of device range")

// CheckRange validates an access of n bytes at off against a device of the
// given size, returning ErrOutOfRange (wrapped with context) on violation.
func CheckRange(name string, size, off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > size {
		return fmt.Errorf("%s: [%d,+%d) outside [0,%d): %w", name, off, n, size, ErrOutOfRange)
	}
	return nil
}
