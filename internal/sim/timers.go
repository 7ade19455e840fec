package sim

import (
	"math/bits"
	"slices"
	"sort"
)

// Timers is a set of events that all run one handler, for a caller
// whose events fall due after random delays and so are queued in no
// particular order: completions after a sampled service time, instance
// starts, re-checks. Like a Lane, an event is its time, its seq and
// the int64 it hands the handler, with no closure; unlike a Lane, At
// takes any time.
//
// The events wait in a calendar queue (R. Brown, "Calendar queues",
// CACM 31(10), 1988). A ring of calBuckets buckets, each 2^calShift ns
// wide, covers the window of buckets [cursor, cursor+calBuckets); an
// event in the window is appended, unsorted, to its bucket's chain of
// pooled blocks, and a bitmap marks the occupied buckets. The cursor's
// bucket is gathered and sorted by (at, seq) the first time it is
// looked at, and a later At into it is inserted in order. An At into
// a bucket before the cursor's, possible once a peek has loaded a
// bucket ahead of the clock, moves the cursor back. Events beyond the
// window wait in a 4-ary overflow heap and move into the ring as the
// window advances, so every overflow event is due after every ring
// event, and the head is always the loaded bucket's first entry.
type Timers struct {
	k  *Kernel
	fn func(arg int64)
	n  int // queued events

	// ring[b&calMask] chains the unsorted entries of bucket b, for each
	// bucket b of the window but the loaded one; occupied has one bit
	// per nonempty slot, and ringN counts the ring's entries.
	ring     []timerSlot
	occupied []uint64
	ringN    int
	cursor   int64 // absolute bucket number, at >> calShift

	// cur[head:] is the cursor's bucket, sorted by (at, seq), while
	// loaded is set.
	cur    []timerEntry
	head   int
	loaded bool

	pool *timerBlock // drained blocks, chained through next
	over heap4[int64]
}

// timerEntry is one queued Timers event: 24 bytes.
type timerEntry struct {
	key eventKey
	arg int64
}

// timerSlot is one bucket's chain of pooled blocks, newest first:
// only the newest can be partly filled, and n counts its entries, so
// an append reads the slot and writes one entry, not a block header.
type timerSlot struct {
	blk *timerBlock
	n   int
}

// timerBlock is one pooled block of a bucket's chain, 1 KB: a bucket
// holds blocks only while it holds entries, so the ring's memory
// follows the queued events instead of each bucket's busiest moment.
type timerBlock struct {
	next *timerBlock
	e    [timerBlockLen]timerEntry
}

const (
	// calShift sets a bucket's width, 2^20 ns (about 1.05 ms), and
	// calBuckets the ring's size, so the window is about 8.6 s: wide
	// enough for the traffic engine's cold per-request completions
	// (about 3 s) and most instance starts (about 1.1 s), narrow enough
	// that its warm completions (about 0.1 s) fill each bucket they
	// touch with dozens of events (DESIGN.md §11).
	calShift   = 20
	calBuckets = 1 << 13
	calMask    = calBuckets - 1

	// timerBlockLen entries of 24 bytes and the next pointer fill a
	// 1 KB block.
	timerBlockLen = 42
)

// NewTimers returns an empty Timers whose events call fn with the
// argument they were queued with. Like a Lane's, its head is compared
// with every other source's before every event while it holds one, so
// a kernel should have a handful, one per event source.
func (k *Kernel) NewTimers(fn func(arg int64)) *Timers {
	tm := &Timers{k: k, fn: fn}
	k.timers = append(k.timers, tm)
	return tm
}

// At queues an event that calls the handler with arg at time t. Like
// Kernel.At, it runs a t before Now at the current time.
func (tm *Timers) At(t Time, arg int64) {
	k := tm.k
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.pending++
	k.laneEvents++
	e := timerEntry{key: eventKey{at: t, seq: k.seq}, arg: arg}
	b := int64(t >> calShift)
	if tm.n == 0 {
		// Empty: start the window at this event.
		tm.cursor, tm.loaded, tm.cur, tm.head = b, false, tm.cur[:0], 0
	}
	tm.n++
	switch {
	case b == tm.cursor && tm.loaded:
		// Its seq is the largest yet, so it goes after every entry
		// due at or before t.
		rest := tm.cur[tm.head:]
		i := tm.head + sort.Search(len(rest), func(i int) bool { return e.key.before(rest[i].key) })
		tm.cur = slices.Insert(tm.cur, i, e)
	case b < tm.cursor:
		tm.rewind(b)
		tm.add(b, e)
	case b-tm.cursor >= calBuckets:
		tm.over.push(e.key, e.arg)
	default:
		tm.add(b, e)
	}
}

// add appends e to bucket b's chain.
func (tm *Timers) add(b int64, e timerEntry) {
	if tm.ring == nil {
		tm.ring = make([]timerSlot, calBuckets)
		tm.occupied = make([]uint64, calBuckets/64)
	}
	s := b & calMask
	sl := &tm.ring[s]
	if sl.blk == nil || sl.n == timerBlockLen {
		if sl.blk == nil {
			tm.occupied[s>>6] |= 1 << (s & 63)
		}
		nb := tm.pool
		if nb == nil {
			nb = new(timerBlock)
		} else {
			tm.pool = nb.next
		}
		nb.next = sl.blk
		sl.blk, sl.n = nb, 0
	}
	sl.blk.e[sl.n] = e
	sl.n++
	tm.ringN++
}

// take empties slot s, returning its blocks to the pool, and appends
// the entries it held to dst.
func (tm *Timers) take(s int64, dst []timerEntry) []timerEntry {
	sl := &tm.ring[s]
	for blk, n := sl.blk, sl.n; blk != nil; n = timerBlockLen {
		dst = append(dst, blk.e[:n]...)
		tm.ringN -= n
		next := blk.next
		blk.next, tm.pool = tm.pool, blk
		blk = next
	}
	*sl = timerSlot{}
	tm.occupied[s>>6] &^= 1 << (s & 63)
	return dst
}

// rewind moves the cursor back to bucket b: the loaded bucket's
// entries return to its slot unsorted, and the buckets the shorter
// window no longer covers, [b+calBuckets, cursor+calBuckets), move to
// the overflow heap.
func (tm *Timers) rewind(b int64) {
	if tm.loaded {
		for _, e := range tm.cur[tm.head:] {
			tm.add(tm.cursor, e)
		}
		tm.loaded, tm.cur, tm.head = false, tm.cur[:0], 0
	}
	end := tm.cursor + calBuckets
	for x := max(b+calBuckets, tm.cursor); x < end && tm.ringN > 0; x++ {
		if s := x & calMask; tm.occupied[s>>6]&(1<<(s&63)) != 0 {
			for _, e := range tm.take(s, tm.cur[:0]) {
				tm.over.push(e.key, e.arg)
			}
		}
	}
	tm.cursor = b
}

// peek returns the entry that runs next. The caller has checked that
// the Timers holds one.
func (tm *Timers) peek() *timerEntry {
	if tm.head < len(tm.cur) {
		return &tm.cur[tm.head]
	}
	return tm.load()
}

// load moves the cursor to the first occupied bucket after the loaded
// one (or at the cursor, when none is loaded), or to the overflow
// heap's head when the ring is empty, moves the overflow events the
// advanced window covers into the ring, and gathers and sorts the
// cursor's bucket.
func (tm *Timers) load() *timerEntry {
	from := tm.cursor
	if tm.loaded {
		from++
	}
	b, ok := tm.nextOccupied(from)
	if !ok {
		b = int64(tm.over.keys[0].at >> calShift)
	}
	tm.cursor = b
	for len(tm.over.keys) > 0 && int64(tm.over.keys[0].at>>calShift)-b < calBuckets {
		key, arg := tm.over.pop()
		tm.add(int64(key.at>>calShift), timerEntry{key: key, arg: arg})
	}
	tm.cur, tm.head = tm.take(b&calMask, tm.cur[:0]), 0
	sortEntries(tm.cur)
	tm.loaded = true
	return &tm.cur[0]
}

// sortEntries sorts es by (at, seq), whose keys are distinct: a
// quicksort with a median-of-three pivot down to insertion sort on
// short runs. A bucket holds dozens of entries; on them
// slices.SortFunc, which calls its comparison through a func value,
// took about 5% of perfbench open-loop's CPU, and this sort takes 3%.
func sortEntries(es []timerEntry) {
	for len(es) > 12 {
		n := len(es)
		a, m, z := es[0].key, es[n/2].key, es[n-1].key
		if m.before(a) {
			a, m = m, a
		}
		if z.before(m) {
			m = z
			if m.before(a) {
				m = a
			}
		}
		// Hoare partition around m, which is not the largest key, so
		// both parts are nonempty.
		i, j := -1, n
		for {
			for i++; es[i].key.before(m); i++ {
			}
			for j--; m.before(es[j].key); j-- {
			}
			if i >= j {
				break
			}
			es[i], es[j] = es[j], es[i]
		}
		if j+1 < n-j-1 {
			sortEntries(es[:j+1])
			es = es[j+1:]
		} else {
			sortEntries(es[j+1:])
			es = es[:j+1]
		}
	}
	for i := 1; i < len(es); i++ {
		e, j := es[i], i
		for ; j > 0 && e.key.before(es[j-1].key); j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

// nextOccupied returns the first occupied bucket at or after from,
// scanning the bitmap once around the ring; from is in the window.
func (tm *Timers) nextOccupied(from int64) (int64, bool) {
	if tm.ringN == 0 {
		return 0, false
	}
	s := int(from & calMask)
	w := s >> 6
	word := tm.occupied[w] &^ (1<<(s&63) - 1)
	for i := 0; i <= len(tm.occupied); i++ {
		if word != 0 {
			slot := w<<6 | bits.TrailingZeros64(word)
			return from + int64((slot-s)&calMask), true
		}
		w = (w + 1) % len(tm.occupied)
		word = tm.occupied[w]
	}
	return 0, false
}

// pop drops the head entry, which peek has loaded.
func (tm *Timers) pop() {
	tm.head++
	tm.n--
	if tm.head == len(tm.cur) {
		tm.cur, tm.head = tm.cur[:0], 0
	}
}

// release frees the storage of an empty Timers.
func (tm *Timers) release() {
	tm.ring, tm.occupied, tm.pool, tm.cur = nil, nil, nil, nil
	tm.head, tm.loaded = 0, false
	tm.over.release()
}
