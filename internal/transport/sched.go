package transport

// StreamSched is one sender's bulk-lane scheduler toward one peer: the
// policy half of credit-based flow control, shared by the TCP runtime and
// the simulator. It holds the bulk items (frames, or simulated messages)
// emitted to the peer as streams, hands them out as chunks in round-robin
// order across the first MaxStreams streams, debits the credit window per
// chunk and parks (Next reports nothing) at zero credit instead of
// dropping. The park budget bounds how much a peer that never grants can
// pin: the oldest not-yet-started streams are evicted beyond it.
//
// StreamSched is a clockless, single-threaded state machine: it has no
// mutex, channel or timer, and it never blocks. The TCP runtime wraps it in
// a mutex and a wake-up channel and drives it from its apply, read and
// send loops; the simulator drives it from heap events in virtual time, so
// a seeded simulation exercises exactly the scheduling decisions the live
// runtime makes.
//
// Credit accounting is cumulative per connection epoch: sent counts chunk
// payload bytes handed out, acked is the receiver's cumulative consumed
// counter (CreditMsg), and the available credit is
// CreditWindow - (sent - acked). Cumulative counters make grants
// idempotent: a duplicated or reordered grant is healed by max().
type StreamSched[T any] struct {
	cfg StreamConfig

	streams []*outStream[T]
	// sending holds a stream whose final chunk has been handed out but
	// not yet confirmed written (ChunkWritten). It is out of the
	// round-robin set, yet must survive a reconnect: ResetConn requeues
	// it, so a fin chunk that dies with the connection is retransmitted
	// instead of silently lost.
	sending *outStream[T]
	rr      int    // round-robin cursor over the active transmit set
	nextID  uint64 // per-connection stream id allocator

	// epoch numbers the peer connection. It increments on every
	// ResetConn and stamps every credit grant: the cumulative counters
	// are meaningless across connections, so a grant still in flight from
	// a dead connection is discarded by its stale epoch instead of
	// inflating the fresh window.
	epoch uint32
	sent  int64
	acked int64

	queued int64 // unsent payload bytes across the held streams
	peak   int64
	evicts int64
	parked bool // Next last refused for lack of credit

	// OnEvent, when set, is told of every park and eviction transition:
	// StreamParked with the bytes left waiting for credit, StreamEvicted
	// with the evicted stream's size. Drivers count drops and emit trace
	// events from it; it must not call back into the scheduler.
	OnEvent func(ev StreamEvent, bytes int64)
}

// StreamEvent is a flow-control transition a StreamSched reports.
type StreamEvent uint8

const (
	// StreamParked: Next found streams queued but no credit. Reported
	// once per stall; a chunk handed out ends the stall.
	StreamParked StreamEvent = iota + 1
	// StreamEvicted: the park budget evicted a stream (or refused a new
	// one that could never fit). Under credit flow control this is the
	// only way the bulk lane loses data.
	StreamEvicted
)

// outStream is one held bulk item mid-transmission.
type outStream[T any] struct {
	item T
	size int
	id   uint64
	off  int
}

// Chunk is one scheduled piece of a stream: the stream's item, the wire
// header (id, offset, total, fin) and the payload length. The payload is
// the item's bytes [Header.Offset, Header.Offset+Len).
type Chunk[T any] struct {
	Item   T
	Header StreamHeader
	Len    int
}

// NewStreamSched builds a scheduler at connection epoch zero with a full
// credit window.
func NewStreamSched[T any](cfg StreamConfig) *StreamSched[T] {
	cfg.Normalize()
	return &StreamSched[T]{cfg: cfg}
}

func (s *StreamSched[T]) report(ev StreamEvent, bytes int64) {
	if s.OnEvent != nil {
		s.OnEvent(ev, bytes)
	}
}

// credit returns the available window.
func (s *StreamSched[T]) credit() int64 { return s.cfg.CreditWindow - (s.sent - s.acked) }

// Enqueue accepts one bulk item of size bytes as a new stream. If parking
// it would exceed the park budget, the oldest streams that have not
// started transmitting are evicted first; if the budget still cannot fit
// the item (everything left is mid-transmission, or the item alone
// exceeds the budget) the new item is refused. Each eviction or refusal is
// reported as StreamEvicted.
func (s *StreamSched[T]) Enqueue(item T, size int) {
	need := int64(size)
	s.evictOldest(need)
	if s.queued+need > s.cfg.ParkBudget {
		s.evicts++
		s.report(StreamEvicted, need)
		return
	}
	s.queued += need
	s.peak = max(s.peak, s.queued)
	s.streams = append(s.streams, &outStream[T]{item: item, size: size, id: s.nextID})
	s.nextID++
}

// evictOldest evicts the oldest not-yet-started streams until need more
// bytes fit the park budget (or none is left to evict).
func (s *StreamSched[T]) evictOldest(need int64) {
	if s.queued+need <= s.cfg.ParkBudget {
		return
	}
	kept := s.streams[:0]
	for _, st := range s.streams {
		if s.queued+need > s.cfg.ParkBudget && st.off == 0 {
			s.queued -= int64(st.size)
			s.evicts++
			s.report(StreamEvicted, int64(st.size))
			continue
		}
		kept = append(kept, st)
	}
	clear(s.streams[len(kept):])
	s.streams = kept
	s.rr = 0
}

// Grant applies a receiver credit grant (cumulative consumed bytes) if it
// carries the current connection epoch; grants from a dead connection are
// discarded.
func (s *StreamSched[T]) Grant(epoch uint32, consumed int64) {
	if epoch == s.epoch && consumed > s.acked {
		s.acked = consumed
	}
}

// Next picks the next chunk in round-robin order across the active
// transmit set (the first MaxStreams held streams) and debits the credit
// window; at low credit it hands out a partial chunk that spends the
// remainder rather than stalling until a full chunk's worth is granted.
// ok is false when there is nothing sendable: no streams, or zero credit
// (parked). A fin chunk moves its stream to the sending slot until
// ChunkWritten.
func (s *StreamSched[T]) Next() (c Chunk[T], ok bool) {
	if len(s.streams) == 0 {
		return c, false
	}
	credit := s.credit()
	if credit <= 0 {
		if !s.parked {
			s.parked = true
			s.report(StreamParked, s.queued)
		}
		return c, false
	}
	s.parked = false
	active := min(len(s.streams), s.cfg.MaxStreams)
	if s.rr >= active {
		s.rr = 0
	}
	st := s.streams[s.rr]
	n := s.cfg.ChunkLen(st.size, st.off)
	if int64(n) > credit {
		n = int(credit)
	}
	c = Chunk[T]{
		Item: st.item,
		Header: StreamHeader{
			StreamID: st.id,
			Offset:   uint64(st.off),
			Total:    uint64(st.size),
			Fin:      st.off+n == st.size,
		},
		Len: n,
	}
	st.off += n
	s.sent += int64(n)
	s.queued -= int64(n)
	if c.Header.Fin {
		// rr now points at the next stream (or wraps at the top).
		s.streams = append(s.streams[:s.rr], s.streams[s.rr+1:]...)
		s.sending = st
	} else {
		s.rr++
	}
	return c, true
}

// ChunkWritten confirms the last chunk Next handed out reached the wire,
// releasing the stream held in the sending slot (no-op after a non-fin
// chunk).
func (s *StreamSched[T]) ChunkWritten() { s.sending = nil }

// ResetConn rewinds the scheduler for a fresh connection and returns its
// new epoch: the receiver lost all partial-stream and credit state with
// the old one, so every held stream — including one whose fin chunk was
// handed out but never confirmed written — retransmits from offset zero
// under a full window, with stream ids renumbered from zero. Rewinding
// turns sent bytes back into queued ones, so the park budget is enforced
// again, evicting the oldest streams beyond it.
func (s *StreamSched[T]) ResetConn() uint32 {
	s.epoch++
	s.sent, s.acked = 0, 0
	s.parked = false
	if s.sending != nil {
		s.streams = append(s.streams, nil)
		copy(s.streams[1:], s.streams)
		s.streams[0] = s.sending
		s.sending = nil
	}
	s.queued = 0
	for _, st := range s.streams {
		st.off = 0
		s.queued += int64(st.size)
	}
	s.evictOldest(0)
	for i, st := range s.streams {
		st.id = uint64(i)
	}
	s.rr = 0
	s.nextID = uint64(len(s.streams))
	s.peak = max(s.peak, s.queued)
	return s.epoch
}

// Epoch returns the current connection epoch.
func (s *StreamSched[T]) Epoch() uint32 { return s.epoch }

// Stats snapshots the scheduler's flow-control counters.
func (s *StreamSched[T]) Stats() StreamStats {
	active := int64(len(s.streams))
	if s.sending != nil {
		active++
	}
	return StreamStats{
		QueuedBytes:        s.queued,
		PeakQueuedBytes:    s.peak,
		CreditsOutstanding: s.sent - s.acked,
		StreamsActive:      active,
		Evictions:          s.evicts,
	}
}

// StreamStats are the bulk-lane flow-control counters a transport reports
// per peer (and aggregated per replica): how much bulk data is parked
// waiting for credit, how much of the credit window is in flight, and how
// often the park budget forced an eviction. Both the TCP runtime and the
// simulator fill it from their StreamScheds, so experiments and the
// -status endpoint read one shape.
type StreamStats struct {
	// QueuedBytes is the bulk payload currently parked (accepted from the
	// node but not yet transmitted).
	QueuedBytes int64
	// PeakQueuedBytes is the high-water mark of QueuedBytes.
	PeakQueuedBytes int64
	// CreditsOutstanding is the portion of the credit window in flight:
	// bytes sent but not yet acknowledged consumed by the receiver.
	CreditsOutstanding int64
	// StreamsActive is the number of streams queued or mid-transmission.
	StreamsActive int64
	// Evictions counts streams dropped by the park-budget bound (the
	// slow-peer eviction path).
	Evictions int64
}

// Accumulate adds o's counters into s (peak as max), for aggregating
// per-peer stats into a per-replica view.
func (s *StreamStats) Accumulate(o StreamStats) {
	s.QueuedBytes += o.QueuedBytes
	s.PeakQueuedBytes = max(s.PeakQueuedBytes, o.PeakQueuedBytes)
	s.CreditsOutstanding += o.CreditsOutstanding
	s.StreamsActive += o.StreamsActive
	s.Evictions += o.Evictions
}
