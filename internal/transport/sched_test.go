package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// schedCfg is a small, easily reasoned-about flow-control configuration
// used by the scheduler table tests: 100-byte chunks, 250-byte window,
// 1000-byte park budget.
func schedCfg() StreamConfig {
	return StreamConfig{
		ChunkSize:       100,
		StreamThreshold: 100,
		CreditWindow:    250,
		ParkBudget:      1000,
		MaxStreams:      4,
	}
}

// chunkPayload is the slice of the chunk's frame it carries.
func chunkPayload(c Chunk[[]byte]) []byte {
	return c.Item[c.Header.Offset : int(c.Header.Offset)+c.Len]
}

// drain pulls chunks until the scheduler parks, confirming each written,
// and returns the payload bytes pulled per chunk.
func drain(s *StreamSched[[]byte]) []int {
	var sizes []int
	for {
		c, ok := s.Next()
		if !ok {
			return sizes
		}
		s.ChunkWritten()
		sizes = append(sizes, c.Len)
	}
}

// TestSchedDebitParkResume is the core grant/debit/park/resume sequence:
// the window admits 250 bytes of a 400-byte stream (100-byte chunks, then
// a 50-byte partial chunk spending the remaining credit), parks at zero
// credit, and resumes exactly as far as each cumulative grant allows. Each
// stall is reported once.
func TestSchedDebitParkResume(t *testing.T) {
	s := NewStreamSched[[]byte](schedCfg())
	var parks []int64
	s.OnEvent = func(ev StreamEvent, bytes int64) {
		if ev == StreamParked {
			parks = append(parks, bytes)
		}
	}
	s.Enqueue(make([]byte, 400), 400)

	if got := drain(s); len(got) != 3 || got[0] != 100 || got[1] != 100 || got[2] != 50 {
		t.Fatalf("window-limited chunks %v, want [100 100 50]", got)
	}
	st := s.Stats()
	if st.CreditsOutstanding != 250 || st.QueuedBytes != 150 || st.StreamsActive != 1 {
		t.Fatalf("parked stats %+v", st)
	}
	if len(parks) != 1 || parks[0] != 150 {
		t.Fatalf("park reports %v, want one with the 150 bytes left", parks)
	}
	// Grant 100 consumed bytes (cumulative): exactly 100 more flow.
	s.Grant(0, 100)
	if got := drain(s); len(got) != 1 || got[0] != 100 {
		t.Fatalf("after grant(100): chunks %v, want [100]", got)
	}
	// A duplicate of the same cumulative grant is idempotent.
	s.Grant(0, 100)
	if got := drain(s); len(got) != 0 {
		t.Fatalf("duplicate grant released chunks %v", got)
	}
	if len(parks) != 2 {
		t.Fatalf("park reports %v, want one per stall", parks)
	}
	// Granting everything completes the stream and empties the scheduler.
	s.Grant(0, 400)
	if got := drain(s); len(got) != 1 || got[0] != 50 {
		t.Fatalf("final chunks %v, want [50]", got)
	}
	st = s.Stats()
	if st.QueuedBytes != 0 || st.StreamsActive != 0 || st.Evictions != 0 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestSchedGrantRacesCompletion: a grant arriving after the stream it paid
// for already finished (the receiver consumed faster than it granted) must
// not create phantom streams, and must leave the full window available
// for the next stream.
func TestSchedGrantRacesCompletion(t *testing.T) {
	s := NewStreamSched[[]byte](schedCfg())
	s.Enqueue(make([]byte, 200), 200)
	if got := drain(s); len(got) != 2 {
		t.Fatalf("chunks %v, want 2", got)
	}
	// The stream is gone; now its grant lands.
	s.Grant(0, 200)
	if st := s.Stats(); st.CreditsOutstanding != 0 || st.StreamsActive != 0 {
		t.Fatalf("stats after late grant %+v", st)
	}
	// A stale lower grant after a higher one must not shrink credit.
	s.Grant(0, 150)
	s.Enqueue(make([]byte, 250), 250)
	if got := drain(s); len(got) != 3 || got[0]+got[1]+got[2] != 250 {
		t.Fatalf("full window not available after late grants: %v", got)
	}
}

// TestSchedNeverGrantsEvicts is the park-budget eviction path: a peer that
// never grants credit beyond the initial window accumulates parked
// streams until the budget is hit, at which point the oldest not-yet-
// started streams are evicted (reported with their size) and newer data
// survives.
func TestSchedNeverGrantsEvicts(t *testing.T) {
	s := NewStreamSched[[]byte](schedCfg())
	var evicted []int64
	s.OnEvent = func(ev StreamEvent, bytes int64) {
		if ev == StreamEvicted {
			evicted = append(evicted, bytes)
		}
	}
	// First stream starts transmitting (exhausts the 250-byte window).
	s.Enqueue(make([]byte, 400), 400)
	if got := drain(s); len(got) != 3 {
		t.Fatalf("chunks %v", got)
	}
	// Budget is 1000; 150 remain parked. Fill with two 300-byte streams.
	s.Enqueue(make([]byte, 300), 300)
	s.Enqueue(make([]byte, 300), 300)
	if st := s.Stats(); st.QueuedBytes != 750 || st.Evictions != 0 {
		t.Fatalf("pre-eviction stats %+v", st)
	}
	// 300 more would exceed the budget: the oldest unstarted stream (the
	// first 300) is evicted; the mid-transmission stream must survive.
	s.Enqueue(make([]byte, 300), 300)
	st := s.Stats()
	if st.Evictions != 1 || len(evicted) != 1 || evicted[0] != 300 {
		t.Fatalf("evictions %d reported %v, want one of 300 bytes", st.Evictions, evicted)
	}
	if st.QueuedBytes != 750 || st.StreamsActive != 3 {
		t.Fatalf("post-eviction stats %+v", st)
	}
	// A frame larger than the whole budget can never fit: eviction empties
	// both remaining unstarted streams, then the frame itself is refused
	// (1 earlier + 2 parked + 1 oversized = 4).
	s.Enqueue(make([]byte, 2000), 2000)
	if st := s.Stats(); st.Evictions != 4 || len(evicted) != 4 || evicted[3] != 2000 {
		t.Fatalf("evictions %d reported %v, want 4 ending with the 2000-byte frame", st.Evictions, evicted)
	}
	// The partially transmitted stream is never evicted.
	if st := s.Stats(); st.StreamsActive != 1 || st.QueuedBytes != 150 {
		t.Fatalf("mid-transmission stream evicted: %+v", st)
	}
}

// TestSchedRoundRobinInterleavesStreams: chunks of concurrent streams
// alternate instead of finishing one stream before starting the next.
func TestSchedRoundRobinInterleavesStreams(t *testing.T) {
	cfg := schedCfg()
	cfg.CreditWindow = 1 << 20 // no credit noise
	s := NewStreamSched[[]byte](cfg)
	s.Enqueue(bytes.Repeat([]byte{'a'}, 300), 300)
	s.Enqueue(bytes.Repeat([]byte{'b'}, 300), 300)
	var tags []byte
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		s.ChunkWritten()
		tags = append(tags, chunkPayload(c)[0])
	}
	if string(tags) != "ababab" {
		t.Fatalf("chunk interleaving %q, want fair round-robin \"ababab\"", tags)
	}
}

// TestSchedResetConnRewinds: a reconnect must rewind partially sent
// streams to offset zero under a fresh window, so the new connection's
// reassembler sees every stream from its first byte.
func TestSchedResetConnRewinds(t *testing.T) {
	s := NewStreamSched[[]byte](schedCfg())
	s.Enqueue(make([]byte, 400), 400)
	drain(s) // 250 sent, parked
	s.ResetConn()
	st := s.Stats()
	if st.QueuedBytes != 400 || st.CreditsOutstanding != 0 {
		t.Fatalf("post-reset stats %+v", st)
	}
	c, ok := s.Next()
	if !ok {
		t.Fatal("nothing to send after reset")
	}
	if c.Header.Offset != 0 || c.Header.StreamID != 0 {
		t.Fatalf("first chunk after reset %+v, want stream 0 at offset 0", c.Header)
	}
}

// TestSchedResetConnEnforcesBudget: rewinding turns sent bytes back into
// queued ones, so a reconnect re-applies the park budget, evicting the
// oldest streams until the rewound backlog fits.
func TestSchedResetConnEnforcesBudget(t *testing.T) {
	cfg := schedCfg()
	cfg.CreditWindow = 1 << 20
	s := NewStreamSched[[]byte](cfg)
	s.Enqueue(make([]byte, 900), 900)
	for i := 0; i < 5; i++ { // 500 of the 900 bytes go out
		if _, ok := s.Next(); !ok {
			t.Fatal("nothing to send")
		}
	}
	s.Enqueue(make([]byte, 600), 600) // 400 + 600 queued: at the budget
	s.ResetConn()                     // 900 + 600 rewound: over it
	st := s.Stats()
	if st.Evictions != 1 || st.QueuedBytes != 600 || st.StreamsActive != 1 {
		t.Fatalf("post-reset stats %+v, want the 900-byte stream evicted", st)
	}
}

// TestSchedFinChunkSurvivesReconnect: a stream whose final chunk was
// handed out but never confirmed written (the connection died mid-write)
// must be requeued by ResetConn and retransmitted from offset zero.
func TestSchedFinChunkSurvivesReconnect(t *testing.T) {
	s := NewStreamSched[[]byte](schedCfg())
	s.Enqueue(make([]byte, 50), 50) // single fin chunk
	if _, ok := s.Next(); !ok {
		t.Fatal("nothing to send")
	}
	// No ChunkWritten: the write failed. The stream must still be
	// accounted and survive the reconnect.
	if st := s.Stats(); st.StreamsActive != 1 {
		t.Fatalf("unconfirmed fin chunk not tracked: %+v", st)
	}
	s.ResetConn()
	if st := s.Stats(); st.StreamsActive != 1 || st.QueuedBytes != 50 {
		t.Fatalf("fin-chunk stream lost across reconnect: %+v", st)
	}
	c, ok := s.Next()
	if !ok {
		t.Fatal("stream not retransmitted after reconnect")
	}
	if c.Header.Offset != 0 || !c.Header.Fin || c.Len != 50 {
		t.Fatalf("retransmission %+v len %d, want full frame from 0", c.Header, c.Len)
	}
	s.ChunkWritten() // this time the wire cooperates
	if st := s.Stats(); st.StreamsActive != 0 || st.Evictions != 0 {
		t.Fatalf("final stats %+v", st)
	}
	// A fin chunk that WAS confirmed written must not be requeued.
	s.Enqueue(make([]byte, 50), 50)
	if _, ok := s.Next(); !ok {
		t.Fatal("nothing to send")
	}
	s.ChunkWritten()
	s.ResetConn()
	if st := s.Stats(); st.StreamsActive != 0 {
		t.Fatalf("written stream duplicated across reconnect: %+v", st)
	}
}

// TestSchedStaleEpochGrantIgnored: grants travel on the reverse-direction
// connection, which survives a data-connection reset — a grant carrying
// the dead connection's cumulative counter must not inflate the fresh
// window.
func TestSchedStaleEpochGrantIgnored(t *testing.T) {
	s := NewStreamSched[[]byte](schedCfg())
	e1 := s.ResetConn()
	s.Enqueue(make([]byte, 400), 400)
	if got := drain(s); len(got) != 3 {
		t.Fatalf("chunks %v", got)
	}
	// A huge grant from another epoch (in flight across the reconnect).
	s.Grant(e1+7, 1<<40)
	if got := drain(s); len(got) != 0 {
		t.Fatalf("stale-epoch grant released chunks %v", got)
	}
	if st := s.Stats(); st.CreditsOutstanding != 250 {
		t.Fatalf("stale-epoch grant corrupted the window: %+v", st)
	}
	// The current epoch's grant works.
	s.Grant(e1, 250)
	if got := drain(s); len(got) != 2 || got[0]+got[1] != 150 {
		t.Fatalf("current-epoch grant: chunks %v, want the remaining 150", got)
	}
	// After another reconnect, the old epoch's grants are stale too.
	e2 := s.ResetConn()
	if e2 == e1 || e2 != s.Epoch() {
		t.Fatalf("epoch %d after reconnect from %d", e2, e1)
	}
	drain(s) // spend the fresh window
	s.Grant(e1, 1<<40)
	if got := drain(s); len(got) != 0 {
		t.Fatalf("previous-epoch grant released chunks %v", got)
	}
}

// TestSchedChunksReassemble closes the loop: everything the scheduler
// emits feeds a Reassembler and must rebuild the original frames exactly.
func TestSchedChunksReassemble(t *testing.T) {
	cfg := schedCfg()
	s := NewStreamSched[[]byte](cfg)
	frames := [][]byte{
		bytes.Repeat([]byte{1}, 450),
		bytes.Repeat([]byte{2}, 99),
		bytes.Repeat([]byte{3}, 301),
	}
	for _, f := range frames {
		s.Enqueue(f, len(f))
	}
	asm := NewReassembler(cfg, 1<<20)
	var got [][]byte
	var consumed, granted int64 // cumulative, like a real receiver
	for {
		c, ok := s.Next()
		if !ok {
			if consumed > granted {
				s.Grant(0, consumed) // play the receiver: grant everything
				granted = consumed
				continue
			}
			break
		}
		s.ChunkWritten()
		complete, err := asm.Add(c.Header, chunkPayload(c))
		if err != nil {
			t.Fatal(err)
		}
		consumed += int64(c.Len)
		if complete != nil {
			got = append(got, complete)
		}
	}
	if len(got) != len(frames) {
		t.Fatalf("reassembled %d frames, want %d", len(got), len(frames))
	}
	for _, f := range frames {
		found := false
		for _, g := range got {
			if bytes.Equal(f, g) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("frame of %d bytes not reassembled intact", len(f))
		}
	}
}

// FuzzStreamSched drives the scheduler with an arbitrary operation
// sequence against a live receiver (a Reassembler per connection epoch)
// and checks its invariants after every step:
//   - credit in use stays within [0, CreditWindow];
//   - queued bytes equal the unsent bytes of the held streams, and never
//     exceed ParkBudget;
//   - the receiver never reports a stream violation, every completed frame
//     is byte-identical to the one enqueued, no frame completes twice in
//     one epoch, and once the run drains every frame has completed exactly
//     once or was counted evicted (never both).
//
// Input: data[0] picks the window, data[1] the stream cap, then each byte
// is one operation (low 3 bits) with its argument (the rest).
func FuzzStreamSched(f *testing.F) {
	f.Add([]byte{60, 1, 0x80, 0x40, 1, 1, 1, 3, 1, 1})
	f.Add([]byte{10, 3, 0xf0, 0xf0, 0xf0, 1, 2, 1, 5, 1, 3, 1, 4, 1, 0x08, 0x10})
	f.Add([]byte{255, 0, 0xf8, 0xf8, 0xf8, 0xf8, 1, 1, 0xf8, 6, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := StreamConfig{
			ChunkSize:       64,
			StreamThreshold: 64,
			CreditWindow:    int64(data[0])*4 + 1,
			ParkBudget:      1024,
			MaxStreams:      int(data[1]%4) + 1,
		}
		s := NewStreamSched[[]byte](cfg)
		evictEvents := 0
		s.OnEvent = func(ev StreamEvent, _ int64) {
			if ev == StreamEvicted {
				evictEvents++
			}
		}
		var frames [][]byte
		evicted := map[int]bool{}
		completed := map[int]int{}        // frame -> total completions
		perEpoch := map[[2]uint64]bool{}  // (frame, epoch) completed
		asm := NewReassembler(cfg, 1<<20) // the current connection's receiver
		var consumed int64                // receiver's cumulative count this epoch
		frameOf := func(b []byte) int { return int(binary.BigEndian.Uint32(b)) }
		held := func() map[int]bool {
			h := map[int]bool{}
			for _, st := range s.streams {
				h[frameOf(st.item)] = true
			}
			if s.sending != nil {
				h[frameOf(s.sending.item)] = true
			}
			return h
		}
		// track runs op (which may admit frame fresh, or -1), attributing
		// every stream it drops to eviction.
		track := func(fresh int, op func()) {
			before, events := held(), evictEvents
			if fresh >= 0 {
				before[fresh] = true
			}
			op()
			after := held()
			lost := 0
			for id := range before {
				if !after[id] {
					evicted[id] = true
					lost++
				}
			}
			if evictEvents-events != lost {
				t.Fatalf("%d streams dropped, %d evictions reported", lost, evictEvents-events)
			}
		}
		reconnect := func() {
			track(-1, func() { s.ResetConn() })
			asm = NewReassembler(cfg, 1<<20)
			consumed = 0
		}
		send := func() bool {
			c, ok := s.Next()
			if !ok {
				return false
			}
			s.ChunkWritten()
			complete, err := asm.Add(c.Header, chunkPayload(c))
			if err != nil {
				t.Fatalf("receiver rejected chunk %+v: %v", c.Header, err)
			}
			consumed += int64(c.Len)
			if complete != nil {
				id := frameOf(complete)
				if !bytes.Equal(complete, frames[id]) {
					t.Fatalf("frame %d reassembled corrupt", id)
				}
				key := [2]uint64{uint64(id), uint64(s.Epoch())}
				if perEpoch[key] {
					t.Fatalf("frame %d completed twice in epoch %d", id, s.Epoch())
				}
				perEpoch[key] = true
				completed[id]++
			}
			return true
		}
		check := func() {
			inUse := s.sent - s.acked
			if inUse < 0 || inUse > cfg.CreditWindow {
				t.Fatalf("credit in use %d outside [0, %d]", inUse, cfg.CreditWindow)
			}
			var unsent int64
			for _, st := range s.streams {
				unsent += int64(st.size - st.off)
			}
			if s.queued != unsent || s.queued > cfg.ParkBudget {
				t.Fatalf("queued %d, unsent %d, budget %d", s.queued, unsent, cfg.ParkBudget)
			}
		}
		for _, b := range data[2:] {
			arg := int(b >> 3)
			switch b & 7 {
			case 0, 7: // enqueue a frame of 4..4+31*16 bytes
				frame := make([]byte, 4+arg*16)
				binary.BigEndian.PutUint32(frame, uint32(len(frames)))
				for i := 4; i < len(frame); i++ {
					frame[i] = byte(len(frames))
				}
				frames = append(frames, frame)
				track(len(frames)-1, func() { s.Enqueue(frame, len(frame)) })
			case 1, 6: // send up to arg+1 chunks
				for i := 0; i <= arg && send(); i++ {
				}
			case 2: // a chunk whose write fails: the connection dies
				if _, ok := s.Next(); ok {
					reconnect()
				}
			case 3: // grant part of what the receiver consumed
				s.Grant(s.Epoch(), consumed*int64(arg)/31)
			case 4: // a grant from another connection epoch
				s.Grant(s.Epoch()+uint32(arg)+1, 1<<40)
				s.Grant(s.Epoch()-1, 1<<40)
			case 5: // reconnect
				reconnect()
			}
			check()
		}
		// Drain: the receiver grants everything it consumes.
		for len(s.streams) > 0 || s.sending != nil {
			if send() {
				continue
			}
			check()
			acked := s.acked
			s.Grant(s.Epoch(), consumed)
			if s.acked == acked {
				t.Fatalf("stuck with %d streams held and nothing left to grant", len(s.streams))
			}
		}
		check()
		for id := range frames {
			if evicted[id] == (completed[id] == 1) || completed[id] > 1 {
				t.Fatalf("frame %d: evicted %v, completed %d times", id, evicted[id], completed[id])
			}
		}
	})
}
