package sim

// eventQueue is the engine's pending-event set: a 4-ary min-heap
// ordered by (at, seq). The key is unique, because seq is, so the pop
// order is the one total order any correct priority queue gives: time
// order, FIFO among equal times.
//
// Each item keeps its key inline, so comparisons read contiguous memory
// and never chase the *event pointer, and four children per node halve
// the tree's depth against a binary heap and sit side by side. Each
// event records its index in the heap, which is what lets
// EventHandle.Cancel remove it at once instead of leaving a tombstone
// to be skipped at pop time: a timeout-heavy run (every GlobalRead
// deadline, every retransmit timer) stays bounded by the number of
// genuinely pending events.
//
// The zero value is an empty queue.
type eventQueue struct {
	items []queueItem
}

// queueItem is one queued event with its ordering key inlined.
type queueItem struct {
	at  Time
	seq uint64
	ev  *event
}

func (a queueItem) less(b queueItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *eventQueue) len() int { return len(q.items) }

// peek returns the earliest pending event without removing it (nil when
// empty).
func (q *eventQueue) peek() *event {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0].ev
}

func (q *eventQueue) insert(ev *event) {
	q.items = append(q.items, queueItem{})
	q.up(len(q.items)-1, queueItem{at: ev.at, seq: ev.seq, ev: ev})
}

// pop removes and returns the earliest pending event (nil when empty).
func (q *eventQueue) pop() *event {
	if len(q.items) == 0 {
		return nil
	}
	ev := q.items[0].ev
	q.removeAt(0)
	return ev
}

// remove deletes ev, which must currently be queued (callers gate on
// the event's index). This is the eager-cancel path.
func (q *eventQueue) remove(ev *event) { q.removeAt(ev.idx) }

// removeAt deletes the item at index i and marks its event unqueued.
// The last item fills the hole and sifts whichever way its key says.
func (q *eventQueue) removeAt(i int) {
	q.items[i].ev.idx = -1
	last := len(q.items) - 1
	it := q.items[last]
	q.items[last] = queueItem{}
	q.items = q.items[:last]
	switch {
	case i == last:
	case i > 0 && it.less(q.items[(i-1)/4]):
		q.up(i, it)
	default:
		q.down(i, it)
	}
}

// up places it at the hole i or above, moving larger parents down.
func (q *eventQueue) up(i int, it queueItem) {
	for i > 0 {
		p := (i - 1) / 4
		if !it.less(q.items[p]) {
			break
		}
		q.items[i] = q.items[p]
		q.items[i].ev.idx = i
		i = p
	}
	q.items[i] = it
	it.ev.idx = i
}

// down places it at the hole i or below, moving smaller children up.
func (q *eventQueue) down(i int, it queueItem) {
	n := len(q.items)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if q.items[j].less(q.items[m]) {
				m = j
			}
		}
		if !q.items[m].less(it) {
			break
		}
		q.items[i] = q.items[m]
		q.items[i].ev.idx = i
		i = m
	}
	q.items[i] = it
	it.ev.idx = i
}
