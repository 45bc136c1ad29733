package storage

// SparseBuffer is a chunked, lazily allocated byte store used as the backing
// medium of simulated devices. Unwritten regions read back as zeros, so a
// multi-gigabyte simulated device only consumes host memory proportional to
// the bytes actually written.
//
// A buffer may sit on an immutable base layer (SetBase): the first len(base)
// bytes read through to it until written, and a write copies the touched
// 128 KiB chunk out of the base first — except a write whose source is the
// very base range it targets, which changes nothing and stores nothing. Any
// number of buffers share one base; none of them ever writes to it.
//
// SparseBuffer is not safe for concurrent use; devices serialize access
// under their own locks.

const sparseChunkSize = 128 << 10 // 128 KiB, matches the SSD block size

// SparseBuffer holds size logical bytes in sparse chunks over an optional
// read-only base.
type SparseBuffer struct {
	size   int64
	base   []byte           // shared, never written; chunks shadow it
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

// SetBase makes base the content of the first len(base) bytes without
// copying it. The caller guarantees base is never modified while the buffer
// is in use. Only a buffer that has not been written can take a base, and
// only one.
func (b *SparseBuffer) SetBase(base []byte) {
	if len(b.chunks) != 0 || b.base != nil {
		panic("storage: SetBase on a sparse buffer that already has content")
	}
	if int64(len(base)) > b.size {
		panic("storage: base larger than the sparse buffer")
	}
	b.base = base
}

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
			var fromBase int
			if off < int64(len(b.base)) {
				fromBase = copy(p[:n], b.base[off:])
			}
			clear(p[fromBase:n])
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
		chunk := b.chunks[ci]
		if chunk == nil && !b.isBase(p[:n], off) {
			chunk = make([]byte, sparseChunkSize)
			if start := ci * sparseChunkSize; start < int64(len(b.base)) {
				copy(chunk, b.base[start:])
			}
			b.chunks[ci] = chunk
		}
		if chunk != nil {
			copy(chunk[co:co+n], p[:n])
		}
		p = p[n:]
		off += n
	}
}

// isBase reports whether p is the base's own memory for [off, off+len(p)):
// the bytes an unshadowed read of that range already returns.
func (b *SparseBuffer) isBase(p []byte, off int64) bool {
	return off+int64(len(p)) <= int64(len(b.base)) && &p[0] == &b.base[off]
}
