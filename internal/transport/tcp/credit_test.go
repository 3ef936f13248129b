package tcp

import (
	"encoding/binary"
	"testing"

	"leopard/internal/transport"
)

// BenchmarkStreamSend measures the chunking hot path: enqueue a bulk
// frame, pull every chunk through the locked bulk lane and feed the
// reassembler, with credits granted as consumed — the full streaming
// overhead minus the socket. CI runs this as a smoke test so chunking regressions fail
// loudly.
func BenchmarkStreamSend(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(sizeLabel(size), func(b *testing.B) {
			cfg := transport.StreamConfig{}
			cfg.Normalize()
			l := newBulkLane(cfg)
			asm := transport.NewReassembler(cfg, 64<<20)
			frame := make([]byte, size)
			buf := make([]byte, 0, 1+transport.StreamHeaderSize)
			var consumed int64
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.enqueue(frame)
				for {
					body, payload, ok := l.nextChunk(buf)
					if !ok {
						l.grant(0, consumed)
						continue
					}
					l.chunkWritten()
					hdr, _, err := transport.ParseStreamHeader(body[1:])
					if err != nil {
						b.Fatal(err)
					}
					consumed += int64(len(payload))
					complete, err := asm.Add(hdr, payload)
					if err != nil {
						b.Fatal(err)
					}
					if complete != nil {
						break
					}
				}
			}
		})
	}
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + "MiB"
	case n >= 1<<10:
		return itoa(n>>10) + "KiB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestPeerGrantMailboxCoalesces: the per-peer grant mailbox keeps only
// the newest cumulative grant (a queue slot could be dropped on overflow,
// deadlocking a fully parked sender), replaces it wholesale on a new
// connection epoch, and ignores stale regressions within an epoch.
func TestPeerGrantMailboxCoalesces(t *testing.T) {
	p := &peer{grantNotify: make(chan struct{}, 1)}
	if got := p.takeGrant(); got != nil {
		t.Fatalf("empty mailbox yielded %x", got)
	}
	p.setGrant(1, 100)
	p.setGrant(1, 250) // coalesces: only the newest counter matters
	body := p.takeGrant()
	if body == nil || body[0] != frameKindCredit {
		t.Fatalf("mailbox body %x", body)
	}
	if e := binary.BigEndian.Uint32(body[1:5]); e != 1 {
		t.Fatalf("epoch %d, want 1", e)
	}
	if c := binary.BigEndian.Uint64(body[5:]); c != 250 {
		t.Fatalf("consumed %d, want 250 (coalesced)", c)
	}
	if p.takeGrant() != nil {
		t.Fatal("mailbox not drained by takeGrant")
	}
	// Within an epoch the counter only grows: a higher value re-arms the
	// mailbox, a duplicate or regression does not.
	p.setGrant(1, 300)
	if p.takeGrant() == nil {
		t.Fatal("fresh grant lost")
	}
	p.setGrant(1, 200)
	if p.takeGrant() != nil {
		t.Fatal("regressed counter accepted within an epoch")
	}
	// A newer epoch replaces outright, even with a smaller counter.
	p.setGrant(2, 50)
	body = p.takeGrant()
	if body == nil || binary.BigEndian.Uint32(body[1:5]) != 2 ||
		binary.BigEndian.Uint64(body[5:]) != 50 {
		t.Fatalf("new-epoch grant body %x", body)
	}
	// An OLDER epoch must not clobber the slot: after a reconnect the old
	// connection's readLoop can linger on kernel-buffered chunks and its
	// late grants would otherwise destroy the new epoch's grant (which
	// the peer would then never re-receive while fully parked).
	p.setGrant(2, 90)
	p.setGrant(1, 1<<40)
	body = p.takeGrant()
	if body == nil || binary.BigEndian.Uint32(body[1:5]) != 2 ||
		binary.BigEndian.Uint64(body[5:]) != 90 {
		t.Fatalf("stale-epoch grant clobbered the mailbox: %x", body)
	}
}
