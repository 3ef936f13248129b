package main

import (
	"sync"
	"sync/atomic"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// The traced run times each layer from outside, by wrapping the public
// interfaces a replica already accepts through its config: crypto.Suite,
// leopard.ClientVerifier, storage.Store, transport.Codec and the
// transport.Node the runtime drives. Nothing inside the program changes.

// timer accumulates the calls into one layer boundary and their busy time.
type timer struct{ calls, ns atomic.Int64 }

func (t *timer) add(calls int64, d time.Duration) {
	t.calls.Add(calls)
	t.ns.Add(int64(d))
}

// The layer boundaries a probe times.
const (
	tSign = iota
	tVerifyShare
	tCombine
	tVerifyProof
	tVerifyReq // calls count requests
	tEncode
	tDecode
	tDeliver // self time
	tTick    // self time
	tAdmit   // SubmitSigned minus verification
	tAppend
	tAppendVote
	numTimers
)

// probes holds one replica incarnation's layer timers. Calls that run on
// the replica's apply loop (crypto, client verification, storage, encode)
// also add their time to nested, which the node wrapper subtracts from
// Deliver and Tick to leave the protocol's self time.
type probes struct {
	t        [numTimers]timer
	encBytes atomic.Int64 // encoded frame bytes
	nested   atomic.Int64

	// window gates the per-call samples below to the measured window.
	window *atomic.Bool
	mu     sync.Mutex
	voteNs []int64 // AppendVote durations
	waitNs []int64 // Inject call -> closure start
}

func newProbes(window *atomic.Bool) *probes { return &probes{window: window} }

// nest records one apply-loop call into t that started at start.
func (p *probes) nest(t *timer, calls int64, start time.Time) time.Duration {
	d := time.Since(start)
	t.add(calls, d)
	p.nested.Add(int64(d))
	return d
}

// self records a call into t minus the nested time accumulated since
// nestedBefore was read.
func (p *probes) self(t *timer, start time.Time, nestedBefore int64) {
	d := time.Since(start) - time.Duration(p.nested.Load()-nestedBefore)
	t.add(1, d)
}

func (p *probes) sample(dst *[]int64, d time.Duration) {
	if !p.window.Load() {
		return
	}
	p.mu.Lock()
	*dst = append(*dst, int64(d))
	p.mu.Unlock()
}

type timedSuite struct {
	crypto.Suite
	p *probes
}

func (s timedSuite) Sign(signer types.ReplicaID, digest types.Hash) (crypto.Share, error) {
	t := time.Now()
	sh, err := s.Suite.Sign(signer, digest)
	s.p.nest(&s.p.t[tSign], 1, t)
	return sh, err
}

func (s timedSuite) VerifyShare(digest types.Hash, share crypto.Share) error {
	t := time.Now()
	err := s.Suite.VerifyShare(digest, share)
	s.p.nest(&s.p.t[tVerifyShare], 1, t)
	return err
}

func (s timedSuite) Combine(digest types.Hash, shares []crypto.Share) (crypto.Proof, error) {
	t := time.Now()
	pr, err := s.Suite.Combine(digest, shares)
	s.p.nest(&s.p.t[tCombine], 1, t)
	return pr, err
}

func (s timedSuite) VerifyProof(digest types.Hash, proof crypto.Proof) error {
	t := time.Now()
	err := s.Suite.VerifyProof(digest, proof)
	s.p.nest(&s.p.t[tVerifyProof], 1, t)
	return err
}

type timedVerifier struct {
	v leopard.ClientVerifier
	p *probes
}

func (v timedVerifier) VerifyRequest(req types.Request, sig []byte) bool {
	t := time.Now()
	ok := v.v.VerifyRequest(req, sig)
	v.p.nest(&v.p.t[tVerifyReq], 1, t)
	return ok
}

func (v timedVerifier) VerifyRequestBatch(reqs []types.Request, sigs [][]byte) []bool {
	t := time.Now()
	ok := v.v.VerifyRequestBatch(reqs, sigs)
	v.p.nest(&v.p.t[tVerifyReq], int64(len(reqs)), t)
	return ok
}

type timedStore struct {
	storage.Store
	p *probes
}

func (s timedStore) Append(rec *storage.BlockRecord) error {
	t := time.Now()
	err := s.Store.Append(rec)
	s.p.nest(&s.p.t[tAppend], 1, t)
	return err
}

func (s timedStore) AppendVote(v storage.VoteRecord) error {
	t := time.Now()
	err := s.Store.AppendVote(v)
	s.p.sample(&s.p.voteNs, s.p.nest(&s.p.t[tAppendVote], 1, t))
	return err
}

// timedCodec times encoding (on the apply loop, so nested) and decoding
// (on the runtime's read goroutines, so not nested) and counts encoded
// bytes.
type timedCodec struct {
	c transport.Codec
	p *probes
}

func (c timedCodec) Encode(m transport.Message) ([]byte, error) {
	t := time.Now()
	b, err := c.c.Encode(m)
	c.p.nest(&c.p.t[tEncode], 1, t)
	c.p.encBytes.Add(int64(len(b)))
	return b, err
}

func (c timedCodec) Decode(b []byte) (transport.Message, error) {
	t := time.Now()
	m, err := c.c.Decode(b)
	c.p.t[tDecode].add(1, time.Since(t))
	return m, err
}

// timedNode wraps the node the runtime drives. It times Deliver and Tick
// as self time, and records the wall-clock instant of the runtime's zero
// at Start so trace timestamps can be moved onto one clock.
type timedNode struct {
	*leopard.Node
	p       *probes
	started func(zero time.Time)
}

func (n timedNode) Start(now time.Duration, out transport.Sink) {
	n.started(time.Now().Add(-now))
	n.Node.Start(now, out)
}

func (n timedNode) Deliver(now time.Duration, from types.ReplicaID, msg transport.Message, out transport.Sink) {
	t, before := time.Now(), n.p.nested.Load()
	n.Node.Deliver(now, from, msg, out)
	n.p.self(&n.p.t[tDeliver], t, before)
}

func (n timedNode) Tick(now time.Duration, out transport.Sink) {
	t, before := time.Now(), n.p.nested.Load()
	n.Node.Tick(now, out)
	n.p.self(&n.p.t[tTick], t, before)
}

// layerTotals is a sum of probes over replica incarnations: calls and
// nanoseconds per timer, and encoded bytes.
type layerTotals struct {
	t        [numTimers][2]int64
	encBytes int64
}

func sumProbes(ps []*probes) layerTotals {
	var s layerTotals
	for _, p := range ps {
		for i := range p.t {
			s.t[i][0] += p.t[i].calls.Load()
			s.t[i][1] += p.t[i].ns.Load()
		}
		s.encBytes += p.encBytes.Load()
	}
	return s
}

// add returns a + k*b.
func (a layerTotals) add(b layerTotals, k int64) layerTotals {
	for i := range a.t {
		a.t[i][0] += k * b.t[i][0]
		a.t[i][1] += k * b.t[i][1]
	}
	a.encBytes += k * b.encBytes
	return a
}
