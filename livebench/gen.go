package main

import (
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leopard/internal/client"
	"leopard/internal/leopard"
	"leopard/internal/mempool"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// Generator inputs. Requests cycle round-robin over numClients client ids;
// the setup probe signs as one extra client so it never touches a
// workload client's sequence numbers.
const (
	numClients  = 1024
	probeClient = numClients
	payloadSize = 128
	// patience is how long an uncertified request waits before the
	// generator retransmits it to client.RetransmitSet: the default of
	// cmd/leopard-client.
	patience = 2 * time.Second
	// scanEvery paces the retransmit scan.
	scanEvery = 20 * time.Millisecond
)

// request is one pre-signed submission. Request i is client i%numClients's
// sequence number i/numClients, so a reply maps back to its index.
type request struct {
	req    types.Request
	sig    []byte
	origin types.ReplicaID
}

// claim is one replica's reply for a request: the (serial number, result)
// it executed the request at, with its signature share.
type claim struct {
	sn     types.SeqNum
	result types.Hash
	signer types.ReplicaID
	sig    []byte
}

// certKey is the value f+1 replies must agree on.
type certKey struct {
	sn     types.SeqNum
	result types.Hash
}

type reqState struct {
	due, lastSend time.Duration // since the generator epoch
	sent          bool
	attempts      int
	certified     bool
	certAt        time.Duration
	// counted holds the f+1 matching claims that completed the
	// certificate; the output check verifies their signatures.
	counted  []claim
	conflict bool
	claims   []claim // latest claim per replica, valid where has is set
	has      uint64  // bitmask of replicas with a claim
}

// generator is the open-loop load generator. One sender goroutine
// submits requests at their due times and retransmits overdue ones; reply
// shares arrive on the replicas' apply loops through onReply.
type generator struct {
	n, f  int
	keys  *client.Keychain
	seed  uint64
	epoch time.Time

	mu   sync.Mutex
	reqs []request
	st   []reqState

	verdicts    [mempool.BadSignature + 1]atomic.Int64
	retransmits atomic.Int64

	// The sender goroutine alone writes these.
	late []time.Duration // send time minus due time, window requests only

	probeMu   sync.Mutex
	probe     map[types.ReplicaID]certKey
	probeDone chan struct{}
}

func newGenerator(n int, seed uint64, keys *client.Keychain) *generator {
	q, _ := types.NewQuorumParams(n)
	return &generator{n: n, f: q.F, keys: keys, seed: seed}
}

// origins are the replicas that pack datablocks: every replica but the
// view-1 leader, which never packs its own.
func origins(n int) []types.ReplicaID {
	leader := types.LeaderOf(1, n)
	var out []types.ReplicaID
	for id := 0; id < n; id++ {
		if types.ReplicaID(id) != leader {
			out = append(out, types.ReplicaID(id))
		}
	}
	return out
}

// prepare generates and signs count more requests, off the clock, using
// every core. Inputs depend only on the seed and the request index.
func (g *generator) prepare(count int) (lo, hi int) {
	g.mu.Lock()
	lo = len(g.reqs)
	hi = lo + count
	g.reqs = append(g.reqs, make([]request, count)...)
	g.st = append(g.st, make([]reqState, count)...)
	reqs := g.reqs[lo:hi]
	g.mu.Unlock()

	orig := origins(g.n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < count; i += workers {
				idx := uint64(lo + i)
				c := idx % numClients
				reqs[i] = request{
					req:    types.Request{ClientID: c, Seq: idx / numClients, Payload: payload(g.seed, idx)},
					origin: orig[c%uint64(len(orig))],
				}
				reqs[i].sig, _ = g.keys.Sign(reqs[i].req)
			}
		}(w)
	}
	wg.Wait()
	return lo, hi
}

func payload(seed, idx uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, idx))
	p := make([]byte, payloadSize)
	for i := 0; i < payloadSize; i += 8 {
		binary.LittleEndian.PutUint64(p[i:], rng.Uint64())
	}
	return p
}

func (g *generator) now() time.Duration { return time.Since(g.epoch) }

// onReply folds one replica's reply into its request's certificate: f+1
// matching (SN, result) claims complete it. It runs on replica apply loops.
func (g *generator) onReply(m leopard.ReplyMsg) {
	at := g.now()
	if m.Client == probeClient {
		g.onProbe(m)
		return
	}
	signer := m.Share.Signer
	if m.Client >= numClients || int(signer) >= g.n {
		return
	}
	idx := m.Seq*numClients + m.Client
	g.mu.Lock()
	defer g.mu.Unlock()
	if idx >= uint64(len(g.st)) {
		return
	}
	s := &g.st[idx]
	if s.claims == nil {
		s.claims = make([]claim, g.n)
	}
	cl := claim{sn: m.SN, result: m.Result, signer: signer, sig: m.Share.Sig}
	s.claims[signer] = cl
	s.has |= 1 << signer
	var matching []claim
	for id := range s.claims {
		if s.has&(1<<id) != 0 && s.claims[id].sn == cl.sn && s.claims[id].result == cl.result {
			matching = append(matching, s.claims[id])
		}
	}
	if len(matching) < g.f+1 {
		return
	}
	if !s.certified {
		s.certified, s.certAt, s.counted = true, at, matching
		return
	}
	if s.counted[0].sn != cl.sn || s.counted[0].result != cl.result {
		// A second value reached f+1: two different certified results.
		s.conflict = true
	}
}

// armProbe starts waiting for the setup probe's certificate.
func (g *generator) armProbe() <-chan struct{} {
	g.probeMu.Lock()
	defer g.probeMu.Unlock()
	g.probe = make(map[types.ReplicaID]certKey)
	g.probeDone = make(chan struct{})
	return g.probeDone
}

func (g *generator) onProbe(m leopard.ReplyMsg) {
	g.probeMu.Lock()
	defer g.probeMu.Unlock()
	if g.probe == nil {
		return
	}
	cl := certKey{m.SN, m.Result}
	g.probe[m.Share.Signer] = cl
	matching := 0
	for _, c := range g.probe {
		if c == cl {
			matching++
		}
	}
	if matching >= g.f+1 {
		close(g.probeDone)
		g.probe = nil
	}
}

// phase is one stretch of the open-loop schedule: requests [lo, hi) due
// at start + (i-lo)/rate.
type phase struct {
	lo, hi int
	rate   float64
	start  time.Duration
	// window bounds the measured requests' due times; lateness is
	// recorded only inside it.
	winFrom, winTo time.Duration
	// retransmit enables client retransmission after patience.
	retransmit bool
}

func (p phase) due(i int) time.Duration {
	return p.start + time.Duration(float64(i-p.lo)/p.rate*float64(time.Second))
}

// run sends the phase on schedule, retransmitting overdue requests, and
// returns once every request of the phase is certified or at deadline.
// Submissions go through each origin's Runtime.Inject in one closure per
// replica per wake-up.
func (g *generator) run(c *cluster, p phase, deadline time.Duration) {
	g.mu.Lock()
	for i := p.lo; i < p.hi; i++ {
		g.st[i].due = p.due(i)
	}
	g.mu.Unlock()
	next, oldest := p.lo, p.lo
	batches := make([][]int, g.n)
	var lastScan time.Duration
	for {
		now := g.now()
		for next < p.hi && g.st[next].due <= now {
			o := g.reqs[next].origin
			batches[o] = append(batches[o], next)
			next++
		}
		g.mu.Lock()
		for _, b := range batches {
			for _, i := range b {
				s := &g.st[i]
				s.sent, s.lastSend, s.attempts = true, now, 1
				if s.due >= p.winFrom && s.due < p.winTo {
					g.late = append(g.late, now-s.due)
				}
			}
		}
		g.mu.Unlock()
		for id, b := range batches {
			if len(b) > 0 {
				g.submit(c, types.ReplicaID(id), b)
				batches[id] = b[:0]
			}
		}
		if now-lastScan >= scanEvery {
			lastScan = now
			oldest = g.scan(c, p, oldest, next, now, batches)
		}
		if oldest >= p.hi || (next >= p.hi && now >= deadline) {
			return
		}
		// Sleep until the next due request or the next scan, whichever
		// comes first.
		wake := lastScan + scanEvery
		if next < p.hi {
			wake = min(wake, g.st[next].due)
		}
		if wait := wake - g.now(); wait > 0 {
			time.Sleep(wait)
		}
	}
}

// scan returns the oldest uncertified index in [oldest, next) and, if the
// phase retransmits, resends every uncertified request there whose
// patience ran out.
func (g *generator) scan(c *cluster, p phase, oldest, next int, now time.Duration, batches [][]int) int {
	g.mu.Lock()
	for oldest < next && g.st[oldest].certified {
		oldest++
	}
	if !p.retransmit {
		g.mu.Unlock()
		return oldest
	}
	var count int64
	for i := oldest; i < next; i++ {
		s := &g.st[i]
		if s.certified || now-s.lastSend < patience {
			continue
		}
		for _, id := range client.RetransmitSet(g.n, g.f, s.attempts-1, g.reqs[i].origin) {
			batches[id] = append(batches[id], i)
		}
		s.lastSend = now
		s.attempts++
		count++
	}
	g.mu.Unlock()
	g.retransmits.Add(count)
	for id, b := range batches {
		if len(b) > 0 {
			g.submit(c, types.ReplicaID(id), b)
			batches[id] = b[:0]
		}
	}
	return oldest
}

// submit hands requests to replica id's apply loop, which admits each
// through Node.SubmitSigned as cmd/leopard-node's client port does. A
// down replica refuses the connection: the requests are lost and the
// retransmit timer recovers them.
func (g *generator) submit(c *cluster, id types.ReplicaID, idxs []int) {
	r := c.replica(id)
	if r == nil {
		return
	}
	batch := make([]*request, len(idxs))
	for k, i := range idxs {
		batch[k] = &g.reqs[i]
	}
	called := time.Now()
	r.rt.Inject(func(now time.Duration, _ transport.Sink) {
		p := r.probes
		if p != nil {
			p.sample(&p.waitNs, time.Since(called))
		}
		for _, q := range batch {
			var t time.Time
			var before int64
			if p != nil {
				t, before = time.Now(), p.nested.Load()
			}
			v := r.node.SubmitSigned(now, q.req, q.sig)
			if p != nil {
				p.self(&p.t[tAdmit], t, before)
			}
			g.verdicts[v].Add(1)
		}
	})
}
