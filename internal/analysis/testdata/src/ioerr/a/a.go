// Fixture: ioerr must flag every shape of discarded storage-layer result
// and accept handled ones.
package a

import (
	"time"

	"ioerr/storage"
)

func bad(d storage.Device, al *storage.Allocator) time.Duration {
	lat, _ := d.ReadAt(nil, 0) // want "error result of storage.ReadAt assigned to _"
	d.WriteAt(nil, 0)          // want "result of storage.WriteAt discarded"
	defer d.WriteAt(nil, 0)    // want "defer discards the error of storage.WriteAt"
	off, _ := al.Alloc(8)      // want "success result of storage.Alloc assigned to _"
	al.Free(off, 8)
	return lat
}

// wantCheckRange keeps the blank assignment above honest: the one-to-one
// `_ =` form is flagged too.
func wantCheckRange() {
	_ = storage.CheckRange(8, 0, 4) // want "error result of storage.CheckRange assigned to _"
}

func good(d storage.Device, al *storage.Allocator) error {
	if _, err := d.ReadAt(nil, 0); err != nil {
		return err
	}
	if _, ok := al.Alloc(8); !ok {
		return nil
	}
	lat, err := d.WriteAt(nil, 0)
	_ = lat
	return err
}

func allowed(d storage.Device) {
	//hybridlint:allow ioerr best-effort prewarm: a failure only loses cache warmth, nothing is lost from accounting
	d.WriteAt(nil, 0)
}
