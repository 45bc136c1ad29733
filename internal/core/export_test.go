package core

// PoisonFreePrefixes overwrites every buffer on m's prefix free lists with
// 0xDB, to its capacity, and returns how many there were: a buffer freed
// while something still reads it then shows as wrong bytes.
func PoisonFreePrefixes(m *Manager) int {
	n := 0
	for _, class := range m.freePrefixes {
		for _, buf := range class {
			buf = buf[:cap(buf)]
			for i := range buf {
				buf[i] = 0xDB
			}
			n++
		}
	}
	return n
}
