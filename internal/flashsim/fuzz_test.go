package flashsim

import (
	"testing"

	"hybridstore/internal/simclock"
)

// FuzzSSDByteModel drives every FTL with fuzz-chosen writes of non-zero and
// all-zero spans, trims and reads, checked against a []byte model of the
// logical space. Each op is four bytes: the kind, a two-byte offset and a
// length of up to three pages. The geometry is tiny, so a short input fills
// the drive and GC, merges, buffer recycling and zero pages — which keep a
// bit, not bytes — all take part.
func FuzzSSDByteModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 200, 1, 64, 0, 127, 3, 0, 0, 255, 2, 70, 0, 30, 3, 0, 0, 255})
	f.Add([]byte{1, 0, 0, 255, 0, 32, 0, 40, 1, 0, 1, 63, 0, 0, 1, 191, 3, 0, 1, 255})
	var churn []byte // zero and non-zero writes, each followed by a read: GC relocates both kinds
	for i := 0; i < 300; i++ {
		churn = append(churn, byte(i%2), byte(i*37), byte(i*37>>8), byte(i*53), 3, byte(i*91), byte(i*91>>8), 255)
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, ops []byte) {
		for k := FTLPageMap; k.Valid(); k++ {
			params := Params{PageSize: 64, PagesPerBlock: 4, ExportedBlocks: 6, SpareBlocks: ftls[k].minSpare}
			d := NewFTL(k, k.String(), simclock.New(), params)
			m := newByteModel(t, d)
			size, pageSize := int(d.Size()), d.PageSize()
			data := make([]byte, 3*pageSize)
			for i := 0; i+4 <= len(ops); i += 4 {
				kind := ops[i] % 4
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
				}
				checkMediumInvariants(t, d)
			}
			m.read(0, size)
		}
	})
}
