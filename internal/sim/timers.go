package sim

import (
	"math/bits"
	"slices"
	"sort"
)

// Timers is a set of events that all run one handler: an event is its
// time, its seq and the int64 it hands the handler, with no closure,
// and At takes any time. It serves callers with many events of a few
// kinds: completions after a sampled service time, instance starts,
// timers that re-arm a fixed delay, a chain in which each event queues
// the next.
//
// The events wait in a calendar queue (R. Brown, "Calendar queues",
// CACM 31(10), 1988) with a coarse far tier, as in hierarchical timing
// wheels (G. Varghese and T. Lauck, SOSP 1987). A fine bucket is
// 2^calShift ns wide and a coarse bucket 2^coarseBits fine buckets.
// The fine ring, of calBuckets slots, holds the fine buckets of the
// cursor's coarse bucket and of the next one; the far ring, of as many
// slots, holds the coarse buckets after those, up to calBuckets past
// the cursor's; a 4-ary overflow heap holds the events beyond. In
// either ring an event is appended, unsorted, to its bucket's chain of
// pooled blocks, and a bitmap marks the occupied slots. A coarse
// bucket is half the fine window, so that the fine ring holds two:
// every event less than a coarse bucket (about 4.3 s) past the
// cursor's bucket goes straight into the fine ring, and when the
// cursor enters coarse bucket c, bucket c+1 moves whole from the far
// ring into the slots that bucket c-1 has left empty, while the
// overflow events the far window now covers move into the rings.
//
// The cursor's bucket is gathered and sorted by (at, seq) the first
// time it is looked at, and a later At into it is inserted in order;
// an At into an empty Timers makes its event that bucket's only entry.
// An At into a bucket before the cursor's, possible once a peek has
// loaded a bucket ahead of the clock, moves the cursor back: the far
// buckets the shorter window no longer covers move to the overflow
// heap, then the fine buckets past the new fine window move to the far
// ring, or to the heap if the cursor moved back by more than the far
// window. Every event in a later tier is due after every event in an
// earlier one, so the head is always the loaded bucket's first entry.
type Timers struct {
	k  *Kernel
	fn func(arg int64)
	n  int // queued events

	// fine chains the entries of each fine bucket b of the fine window
	// but the loaded one in slot b&calMask, and far those of each
	// coarse bucket c of the far window in slot c&calMask.
	fine, far timerRing
	cursor    int64 // absolute fine bucket number, at >> calShift

	// cur[head:] is the cursor's bucket, sorted by (at, seq), while
	// loaded is set.
	cur    []timerEntry
	head   int
	loaded bool

	pool *timerBlock // drained blocks, chained through next
	over heap4[int64]
}

// timerRing is one tier of the calendar: calBuckets slots, each
// chaining one bucket's entries, with one bitmap bit per nonempty slot
// and the count of the entries it holds.
type timerRing struct {
	slots    []timerSlot
	occupied []uint64
	n        int
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
// holds blocks only while it holds entries, so the rings' memory
// follows the queued events instead of each bucket's busiest moment.
type timerBlock struct {
	next *timerBlock
	e    [timerBlockLen]timerEntry
}

const (
	// calShift sets a fine bucket's width, 2^20 ns (about 1.05 ms), and
	// calBuckets each ring's size, so the fine window is about 8.6 s:
	// wide enough for the traffic engine's cold per-request completions
	// (about 3 s) and most instance starts (about 1.1 s), narrow enough
	// that its warm completions (about 0.1 s) fill each bucket they
	// touch with dozens of events (DESIGN.md §11).
	calShift   = 20
	calBuckets = 1 << 13
	calMask    = calBuckets - 1

	// coarseBits sets a coarse bucket's width, 2^12 fine buckets (about
	// 4.3 s), so the far ring reaches about 9.8 h past the cursor:
	// beyond the traffic engine's 5 min idle reaps.
	coarseBits = 12

	// timerBlockLen entries of 24 bytes and the next pointer fill a
	// 1 KB block.
	timerBlockLen = 42
)

// NewTimers returns an empty Timers whose events call fn with the
// argument they were queued with. Its head is compared with every
// other source's before every event while it holds one, so a kernel
// should have a handful, one per event source.
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
	k.timerEvents++
	e := timerEntry{key: eventKey{at: t, seq: k.seq}, arg: arg}
	b := int64(t >> calShift)
	tm.n++
	switch {
	case tm.n == 1:
		// Empty: the event is the loaded bucket's only entry.
		tm.cursor, tm.loaded, tm.cur, tm.head = b, true, append(tm.cur[:0], e), 0
	case b == tm.cursor && tm.loaded:
		// Its seq is the largest yet, so it goes after every entry
		// due at or before t. The shorter side moves: the entries
		// before it into the slot the last run event left, or those
		// after it.
		rest := tm.cur[tm.head:]
		i := tm.head + sort.Search(len(rest), func(i int) bool { return e.key.before(rest[i].key) })
		if tm.head > 0 && i-tm.head < len(tm.cur)-i {
			tm.head--
			copy(tm.cur[tm.head:i-1], tm.cur[tm.head+1:i])
			tm.cur[i-1] = e
		} else {
			tm.cur = slices.Insert(tm.cur, i, e)
		}
	default:
		if b < tm.cursor {
			tm.rewind(b)
		}
		tm.place(b, e)
	}
}

// place queues e, due in fine bucket b, at or after the cursor's, in
// the tier that covers b.
func (tm *Timers) place(b int64, e timerEntry) {
	c := b >> coarseBits
	switch d := c - tm.cursor>>coarseBits; {
	case d < 2:
		tm.add(&tm.fine, b, e)
	case d < calBuckets:
		tm.add(&tm.far, c, e)
	default:
		tm.over.push(e.key, e.arg)
	}
}

// add appends e to the chain of bucket x in ring r.
func (tm *Timers) add(r *timerRing, x int64, e timerEntry) {
	if r.slots == nil {
		r.slots = make([]timerSlot, calBuckets)
		r.occupied = make([]uint64, calBuckets/64)
	}
	s := x & calMask
	sl := &r.slots[s]
	if sl.blk == nil || sl.n == timerBlockLen {
		if sl.blk == nil {
			r.occupied[s>>6] |= 1 << (s & 63)
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
	r.n++
}

// take empties the slot of bucket x in ring r: it hands the entries of
// each block to f, then returns the block to the pool.
func (tm *Timers) take(r *timerRing, x int64, f func([]timerEntry)) {
	s := x & calMask
	sl := &r.slots[s]
	for blk, n := sl.blk, sl.n; blk != nil; n = timerBlockLen {
		f(blk.e[:n])
		r.n -= n
		next := blk.next
		blk.next, tm.pool = tm.pool, blk
		blk = next
	}
	*sl = timerSlot{}
	r.occupied[s>>6] &^= 1 << (s & 63)
}

// move empties every bucket of ring r in [lo, hi) into the tiers that
// cover its entries from the cursor, none of them r.
func (tm *Timers) move(r *timerRing, lo, hi int64) {
	for x, ok := r.next(lo); ok && x < hi; x, ok = r.next(x) {
		tm.take(r, x, func(es []timerEntry) {
			for _, e := range es {
				tm.place(int64(e.key.at>>calShift), e)
			}
		})
	}
}

// rewind moves the cursor back to bucket b. The loaded bucket's
// entries return to their slot unsorted; when b lies in an earlier
// coarse bucket, the far buckets the moved window no longer covers go
// to the overflow heap, and then the fine buckets past the new fine
// window go to the far ring, or to the heap if they lie past the new
// far window too.
func (tm *Timers) rewind(b int64) {
	if tm.loaded {
		for _, e := range tm.cur[tm.head:] {
			tm.add(&tm.fine, tm.cursor, e)
		}
		tm.loaded = false
	}
	from, c := tm.cursor>>coarseBits, b>>coarseBits
	tm.cursor, tm.cur, tm.head = b, tm.cur[:0], 0
	if c < from {
		tm.move(&tm.far, max(c+calBuckets, from+2), from+calBuckets)
		tm.move(&tm.fine, max(c+2, from)<<coarseBits, (from+2)<<coarseBits)
	}
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
// one (or at the cursor, when none is loaded), entering the coarse
// bucket that holds it, and gathers and sorts it.
func (tm *Timers) load() *timerEntry {
	from := tm.cursor
	if tm.loaded {
		from++
	}
	c := tm.cursor >> coarseBits
	b, ok := tm.fine.next(from)
	if !ok {
		// The fine ring is empty: jump to the far ring's first bucket,
		// or else to the overflow heap's head.
		next, ok := tm.far.next(c + 2)
		if !ok {
			next = int64(tm.over.keys[0].at>>calShift) >> coarseBits
		}
		tm.enter(next)
		b, _ = tm.fine.next(next << coarseBits)
	} else if b>>coarseBits != c {
		tm.enter(c + 1)
	}
	tm.cursor, tm.cur, tm.head = b, tm.cur[:0], 0
	tm.take(&tm.fine, b, func(es []timerEntry) { tm.cur = append(tm.cur, es...) })
	sortEntries(tm.cur)
	tm.loaded = true
	return &tm.cur[0]
}

// enter moves the cursor into coarse bucket c, after the cursor's and
// with no fine bucket before it occupied: the far buckets the fine
// window now covers move into the fine ring, and the overflow events
// the far window now covers move into the rings.
func (tm *Timers) enter(c int64) {
	from := tm.cursor >> coarseBits
	tm.cursor = c << coarseBits
	tm.move(&tm.far, max(c, from+2), c+2)
	for len(tm.over.keys) > 0 && int64(tm.over.keys[0].at>>calShift)>>coarseBits-c < calBuckets {
		key, arg := tm.over.pop()
		tm.place(int64(key.at>>calShift), timerEntry{key: key, arg: arg})
	}
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

// next returns the first occupied bucket at or after from, scanning
// the bitmap once around the ring; every bucket r holds at or after
// from lies before from+calBuckets.
func (r *timerRing) next(from int64) (int64, bool) {
	if r.n == 0 {
		return 0, false
	}
	s := int(from & calMask)
	w := s >> 6
	word := r.occupied[w] &^ (1<<(s&63) - 1)
	for i := 0; i <= len(r.occupied); i++ {
		if word != 0 {
			slot := w<<6 | bits.TrailingZeros64(word)
			return from + int64((slot-s)&calMask), true
		}
		w = (w + 1) % len(r.occupied)
		word = r.occupied[w]
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
	tm.fine, tm.far, tm.pool, tm.cur = timerRing{}, timerRing{}, nil, nil
	tm.head, tm.loaded = 0, false
	tm.over.release()
}
