package storage

// SparseBuffer is a chunked, lazily allocated byte store used as the backing
// medium of simulated devices. Unwritten regions read back as zeros, so a
// multi-gigabyte simulated device only consumes host memory proportional to
// the bytes actually written.
//
// SparseBuffer is not safe for concurrent use; devices serialize access
// under their own locks.

const sparseChunkSize = 128 << 10 // 128 KiB, matches the SSD block size

// SparseBuffer holds size logical bytes in sparse chunks.
type SparseBuffer struct {
	size   int64
	chunks map[int64][]byte // chunk index -> chunk contents
}

// NewSparseBuffer returns an all-zero buffer of the given size in bytes.
func NewSparseBuffer(size int64) *SparseBuffer {
	if size < 0 {
		panic("storage: negative sparse buffer size")
	}
	return &SparseBuffer{size: size, chunks: make(map[int64][]byte)}
}

// Size returns the logical size in bytes.
func (b *SparseBuffer) Size() int64 { return b.size }

// ReadAt copies len(p) bytes at off into p. The range must be in bounds.
func (b *SparseBuffer) ReadAt(p []byte, off int64) {
	if err := CheckRange("sparse", b.size, off, len(p)); err != nil {
		panic(err)
	}
	for len(p) > 0 {
		ci := off / sparseChunkSize
		co := off % sparseChunkSize
		n := sparseChunkSize - co
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		if chunk, ok := b.chunks[ci]; ok {
			copy(p[:n], chunk[co:co+n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
}

// WriteAt stores p at off. The range must be in bounds.
func (b *SparseBuffer) WriteAt(p []byte, off int64) {
	if err := CheckRange("sparse", b.size, off, len(p)); err != nil {
		panic(err)
	}
	for len(p) > 0 {
		ci := off / sparseChunkSize
		co := off % sparseChunkSize
		n := sparseChunkSize - co
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		chunk, ok := b.chunks[ci]
		if !ok {
			chunk = make([]byte, sparseChunkSize)
			b.chunks[ci] = chunk
		}
		copy(chunk[co:co+n], p[:n])
		p = p[n:]
		off += n
	}
}
