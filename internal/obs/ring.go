package obs

import "sync"

// DefaultCapacity is the Collector's ring size when none is given: large
// enough to hold a full micro-scale run, small enough (a few MB) to leave
// resident without thought.
const DefaultCapacity = 1 << 14

// Collector is a fixed-capacity ring-buffered Sink: when full, the oldest
// events are overwritten, so a long run keeps its most recent window. The
// backing buffer grows lazily up to the capacity, so many small streams (the
// region service keeps one Collector per job) cost only what they record. It
// is safe for concurrent Emit from worker goroutines.
type Collector struct {
	mu       sync.Mutex
	buf      []Event
	capacity int
	next     int   // overwrite cursor once the buffer has filled
	total    int64 // events ever emitted (including overwritten)
	wrapped  bool
}

// NewCollector returns a collector holding up to capacity events;
// capacity <= 0 selects DefaultCapacity.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{capacity: capacity}
}

// Emit records ev, overwriting the oldest event when the ring is full.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	if len(c.buf) < c.capacity {
		c.buf = append(c.buf, ev)
	} else {
		c.buf[c.next] = ev
		c.next++
		if c.next == c.capacity {
			c.next = 0
		}
		c.wrapped = true
	}
	c.total++
	c.mu.Unlock()
}

// Events returns a snapshot of the retained events in emission order
// (oldest first).
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.wrapped {
		return append([]Event(nil), c.buf...)
	}
	out := make([]Event, 0, len(c.buf))
	out = append(out, c.buf[c.next:]...)
	return append(out, c.buf[:c.next]...)
}

// Len returns the number of events currently retained.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// Total returns the number of events ever emitted, including any that the
// ring has since overwritten.
func (c *Collector) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Dropped returns how many events were overwritten before they could be
// read.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.wrapped {
		return 0
	}
	return c.total - int64(len(c.buf))
}

// Reset discards every retained event and readies the collector for a new
// stream under the same capacity. The buffer is kept for the next events
// when it has room for at most keep of them, so a recycled collector
// records into memory it already has; a larger buffer is let go, so one
// long stream does not leave every later one holding its memory.
func (c *Collector) Reset(keep int) {
	c.mu.Lock()
	if cap(c.buf) > keep {
		c.buf = nil
	} else {
		clear(c.buf) // no stale Cause or Site string stays reachable
		c.buf = c.buf[:0]
	}
	c.next = 0
	c.total = 0
	c.wrapped = false
	c.mu.Unlock()
}
