package sim

// reorderWindow is a receiver's reorder buffer, shared by R2C2 and the TCP
// baseline: next is the sequence number expected in order, and every packet
// that arrived ahead of it is one set bit. Bit seq lives in word seq>>6 of a
// ring of words, so the buffer slides with next and keeps its size however
// long the flow runs; the ring doubles when a packet lands further ahead of
// next than it spans, and stays nil for a flow that never reorders. buffered
// counts the set bits: a bit is set exactly when its packet is buffered and
// cleared exactly when next passes it, so it is the size of the buffer.
type reorderWindow struct {
	next     uint32
	buffered int
	words    []uint64 // len is a power of two; word w sits at w & (len-1)
}

// accept takes packet seq and reports whether it is new: neither delivered
// in order already nor sitting in the buffer.
func (w *reorderWindow) accept(seq uint32) bool {
	if seq < w.next {
		return false
	}
	if seq == w.next {
		w.next++
		for w.buffered > 0 {
			word, bit := &w.words[int(w.next>>6)&(len(w.words)-1)], uint64(1)<<(w.next&63)
			if *word&bit == 0 {
				break
			}
			*word &^= bit
			w.buffered--
			w.next++
		}
		return true
	}
	if span := int(seq>>6-w.next>>6) + 1; span > len(w.words) {
		w.grow(span)
	}
	word, bit := &w.words[int(seq>>6)&(len(w.words)-1)], uint64(1)<<(seq&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	w.buffered++
	return true
}

// grow doubles the ring, from four words, until it spans the given number of
// words from next's, moving each word to its place in the larger ring.
func (w *reorderWindow) grow(span int) {
	n := max(len(w.words), 4)
	for n < span {
		n *= 2
	}
	words := make([]uint64, n)
	for i, base := 0, int(w.next>>6); i < len(w.words); i++ {
		words[(base+i)&(n-1)] = w.words[(base+i)&(len(w.words)-1)]
	}
	w.words = words
}
