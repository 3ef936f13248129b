package tcp

import (
	"sync"

	"leopard/internal/transport"
)

// bulkLane is one peer's bulk lane: the shared transport.StreamSched
// behind a mutex, plus the wake-up channel the send loop parks on.
//
// Locking: the apply loop enqueues, the read loop grants, the send loop
// consumes; all three synchronize on mu. notify is a 1-buffered wake-up
// channel: any state change that could unpark the send loop signals it, so
// the send loop can block on (stop | control | notify) without missing a
// transition. The scheduler's OnEvent hook runs with mu held.
type bulkLane struct {
	mu     sync.Mutex
	sched  *transport.StreamSched[[]byte]
	notify chan struct{}
}

func newBulkLane(cfg transport.StreamConfig) *bulkLane {
	return &bulkLane{sched: transport.NewStreamSched[[]byte](cfg), notify: make(chan struct{}, 1)}
}

// signal wakes the send loop; the 1-buffered channel coalesces bursts.
func (l *bulkLane) signal() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// enqueue accepts one encoded bulk frame as a new stream.
func (l *bulkLane) enqueue(frame []byte) {
	l.mu.Lock()
	l.sched.Enqueue(frame, len(frame))
	l.mu.Unlock()
	l.signal()
}

// grant applies a receiver credit grant for the given connection epoch.
func (l *bulkLane) grant(epoch uint32, consumed int64) {
	l.mu.Lock()
	l.sched.Grant(epoch, consumed)
	l.mu.Unlock()
	l.signal()
}

// nextChunk takes the next chunk from the scheduler. It appends the wire
// body prefix (frame kind + stream header) to dst[:0] and returns it with
// the payload slice; ok is false when nothing is sendable (no streams, or
// parked at zero credit).
func (l *bulkLane) nextChunk(dst []byte) (body, payload []byte, ok bool) {
	l.mu.Lock()
	c, ok := l.sched.Next()
	l.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	body = append(dst[:0], frameKindChunk)
	body = transport.AppendStreamHeader(body, c.Header)
	return body, c.Item[c.Header.Offset : int(c.Header.Offset)+c.Len], true
}

// chunkWritten confirms the last chunk reached the wire.
func (l *bulkLane) chunkWritten() {
	l.mu.Lock()
	l.sched.ChunkWritten()
	l.mu.Unlock()
}

// resetConn rewinds the scheduler for a fresh connection and returns the
// epoch the new connection's hello announces.
func (l *bulkLane) resetConn() uint32 {
	l.mu.Lock()
	epoch := l.sched.ResetConn()
	l.mu.Unlock()
	l.signal()
	return epoch
}

// stats snapshots the scheduler's flow-control counters.
func (l *bulkLane) stats() transport.StreamStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sched.Stats()
}
