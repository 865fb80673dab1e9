package mem

// DRAM models device memory as a fixed service latency plus a bandwidth
// constraint: a request starts when the data bus is free and completes a
// latency later. Nothing bounds the number in flight; the SM's issue-side
// throttling comes from its LG, MIO and TEX queues (TimedQueue).
type DRAM struct {
	latency       uint64
	bytesPerCycle float64

	// bandFree is the cycle at which the data bus becomes free.
	bandFree float64
}

// NewDRAM builds a DRAM model. latency is the full L2-miss service latency in
// core cycles; bytesPerCycle is the sustained bandwidth.
func NewDRAM(latency int, bytesPerCycle float64) *DRAM {
	return &DRAM{latency: uint64(latency), bytesPerCycle: bytesPerCycle}
}

// Request books a transfer of n bytes at cycle now and returns its
// completion cycle.
func (d *DRAM) Request(now uint64, n int) uint64 {
	start := float64(now)
	if d.bandFree > start {
		start = d.bandFree
	}
	d.bandFree = start + float64(n)/d.bytesPerCycle
	return uint64(start) + d.latency
}

// Reset frees the bus.
func (d *DRAM) Reset() { d.bandFree = 0 }

// TimedQueue is a bounded queue of in-flight operations identified only by
// their completion cycles. The SM front-ends use it for the LG, MIO and TEX
// instruction queues: a full queue at issue time is a throttle stall.
type TimedQueue struct {
	depth int
	// pending[head:] holds live completion cycles, oldest first; drained
	// entries advance head and the slice is compacted lazily, so a drain is
	// amortized O(1) instead of an O(n) copy per completion.
	pending []uint64
	head    int
}

// NewTimedQueue builds a queue with the given depth.
func NewTimedQueue(depth int) *TimedQueue {
	return &TimedQueue{depth: depth, pending: make([]uint64, 0, depth)}
}

func (q *TimedQueue) drain(now uint64) {
	for q.head < len(q.pending) && q.pending[q.head] <= now {
		q.head++
	}
	if q.head == len(q.pending) {
		q.pending = q.pending[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.pending) {
		n := copy(q.pending, q.pending[q.head:])
		q.pending = q.pending[:n]
		q.head = 0
	}
}

// Full reports whether the queue has no free entry at cycle now.
func (q *TimedQueue) Full(now uint64) bool {
	q.drain(now)
	return len(q.pending)-q.head >= q.depth
}

// Push records an operation completing at cycle done. Entries must be pushed
// in non-decreasing completion order (true for in-order pipes).
func (q *TimedQueue) Push(done uint64) {
	if n := len(q.pending); n > q.head && q.pending[n-1] > done {
		// Preserve sortedness even if a caller violates monotonicity.
		i := n
		for i > q.head && q.pending[i-1] > done {
			i--
		}
		q.pending = append(q.pending, 0)
		copy(q.pending[i+1:], q.pending[i:])
		q.pending[i] = done
		return
	}
	q.pending = append(q.pending, done)
}

// NextCompletion returns the earliest pending completion cycle, or 0 when
// the queue is empty. A full queue gains a free entry exactly at this
// cycle, so it bounds how long a throttled warp stays throttled.
func (q *TimedQueue) NextCompletion() uint64 {
	if q.head == len(q.pending) {
		return 0
	}
	return q.pending[q.head]
}

// Len returns the occupancy at cycle now.
func (q *TimedQueue) Len(now uint64) int {
	q.drain(now)
	return len(q.pending) - q.head
}

// Reset empties the queue.
func (q *TimedQueue) Reset() { q.pending, q.head = q.pending[:0], 0 }

// Sorted reports whether the live portion of the queue is in non-decreasing
// completion order — the invariant Push maintains and NextCompletion depends
// on. It is a non-mutating scan for the invariant checker.
func (q *TimedQueue) Sorted() bool {
	for i := q.head + 1; i < len(q.pending); i++ {
		if q.pending[i] < q.pending[i-1] {
			return false
		}
	}
	return true
}
