package flashsim

import (
	"testing"

	"hybridstore/internal/simclock"
)

// FuzzSSDByteModel drives every FTL with fuzz-chosen writes of non-zero and
// all-zero spans, trims, reads, and writes of whole pages of which the first
// has a non-zero head and a zero tail, checked against a []byte model of the
// logical space. Each op is four bytes: the kind, a two-byte offset and a
// length of up to three pages (for a head write, the head's length). The
// geometry is tiny, so a short input fills the drive and GC, merges, buffer
// recycling, zero pages — which keep no buffer — and short pages in buffers
// that held longer ones all take part.
func FuzzSSDByteModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 200, 1, 64, 0, 127, 3, 0, 0, 255, 2, 70, 0, 30, 3, 0, 0, 255})
	f.Add([]byte{1, 0, 0, 255, 0, 32, 0, 40, 1, 0, 1, 63, 0, 0, 1, 191, 3, 0, 1, 255})
	var churn []byte // zero and non-zero writes, each followed by a read: GC relocates both kinds
	for i := 0; i < 300; i++ {
		churn = append(churn, byte(i%2), byte(i*37), byte(i*37>>8), byte(i*53), 3, byte(i*91), byte(i*91>>8), 255)
	}
	f.Add(churn)
	var heads []byte // long pages, then short heads and zero pages over them: buffers are reused shorter
	for i := 0; i < 200; i++ {
		heads = append(heads, 0, byte(i*64), byte(i*64>>8), 191, 4, byte(i*37), byte(i*37>>8), byte(i*7), 3, byte(i*37), byte(i*37>>8), 191)
	}
	f.Add(heads)
	f.Fuzz(func(t *testing.T, ops []byte) {
		for k := FTLPageMap; k.Valid(); k++ {
			params := Params{PageSize: 64, PagesPerBlock: 4, ExportedBlocks: 6, SpareBlocks: ftls[k].minSpare}
			d := NewFTL(k, k.String(), simclock.New(), params)
			m := newByteModel(t, d)
			size, pageSize := int(d.Size()), d.PageSize()
			data := make([]byte, 3*pageSize)
			for i := 0; i+4 <= len(ops); i += 4 {
				kind := ops[i] % 5
				off := (int(ops[i+1]) | int(ops[i+2])<<8) % size
				n := 1 + int(ops[i+3])%min(3*pageSize, size-off)
				switch kind {
				case 0:
					for j := range data[:n] {
						data[j] = byte(1 + (i+j)%255) // never zero: stale bytes must show
					}
					m.write(off, data[:n])
				case 1:
					clear(data[:n])
					m.write(off, data[:n])
				case 2:
					m.trim(off, n)
				case 3:
					m.read(off, n)
				case 4:
					off -= off % pageSize
					pages := min(3, (size-off)/pageSize)
					clear(data[:pages*pageSize])
					for j := range data[:1+int(ops[i+3])%(pageSize-1)] {
						data[j] = byte(1 + (i+j)%255)
					}
					m.write(off, data[:pages*pageSize])
				}
			}
			m.read(0, size)
		}
	})
}
