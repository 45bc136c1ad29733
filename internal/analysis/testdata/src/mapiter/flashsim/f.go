// Fixture: the device simulators are in mapiter's scope because iteration
// order there decides physical placement. mergeByMapOrder is the shape of
// the hybrid-log FTL bug the analyzer names: the order in which logical
// blocks are merged decides which free block each one lands in.
package flashsim

type drive struct {
	free   []int
	placed map[int]int
}

func (d *drive) place(lb int) {
	d.placed[lb] = d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
}

func (d *drive) mergeByMapOrder(needMerge map[int]bool) {
	for lb := range needMerge { // want "ranges over a map in a device simulator"
		d.place(lb)
	}
}

// mergeByPageOrder walks the victim's pages instead; looking a key up in a
// map is order-free and stays legal.
func (d *drive) mergeByPageOrder(owner []int, needMerge map[int]bool) {
	for _, lb := range owner {
		if needMerge[lb] {
			delete(needMerge, lb)
			d.place(lb)
		}
	}
}
