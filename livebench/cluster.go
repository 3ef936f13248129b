package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/obs"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/transport/tcp"
	"leopard/internal/types"
)

// Replica wiring, as cmd/leopard-node does it for one replica.
const (
	datablockSize = 500
	bftBlockSize  = 10
)

// cluster is n replicas in one process, each a leopard.Node on its own
// tcp.Runtime over loopback. Every replica gets its own suite, keychain
// verifier, store and codec: nothing is shared that separate processes
// could not share.
type cluster struct {
	n       int
	q       types.QuorumParams
	seed    []byte // cluster seed: replica keys and client keys
	addrs   []string
	walDir  string // empty keeps every replica in memory
	onReply func(leopard.ReplyMsg)
	traced  bool
	window  *atomic.Bool
	ringCap int

	mu      sync.Mutex
	reps    []*replica // nil while a replica is down
	stopped []*replica // stopped incarnations whose Run has not been joined
	lives   []*life    // every incarnation, in start order
	retired tcpTotals  // transport counters of stopped incarnations
}

type replica struct {
	id     types.ReplicaID
	node   *leopard.Node
	rt     *tcp.Runtime
	wal    *storage.Log
	probes *probes // nil untraced
	cancel context.CancelFunc
	done   chan error
}

// life is one replica incarnation's trace and probes. zero is the
// wall-clock instant of its runtime's clock origin.
type life struct {
	probes *probes
	tracer *obs.Tracer
	zero   time.Time
}

type tcpTotals struct {
	peakQueued, evictions, drops int64
}

func newCluster(n int, seed []byte, walDir string, traced bool, window *atomic.Bool, ringCap int, onReply func(leopard.ReplyMsg)) (*cluster, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		n: n, q: q, seed: seed, addrs: addrs, walDir: walDir, onReply: onReply,
		traced: traced, window: window, ringCap: ringCap,
		reps: make([]*replica, n),
	}
	for id := 0; id < n; id++ {
		if err := c.start(types.ReplicaID(id)); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// start builds replica id (recovering from its WAL directory, if any) and
// runs it until stop or close.
func (c *cluster) start(id types.ReplicaID) error {
	suite, err := crypto.NewEd25519Suite(c.n, c.seed)
	if err != nil {
		return err
	}
	keys, err := client.NewKeychain(numClients+1, c.seed)
	if err != nil {
		return err
	}
	var (
		cs    crypto.Suite           = suite
		ver   leopard.ClientVerifier = keys.Verifier()
		codec transport.Codec        = leopard.WireCodec{}
		store storage.Store
		wal   *storage.Log
	)
	if c.walDir != "" {
		wal, err = storage.Open(filepath.Join(c.walDir, fmt.Sprintf("replica-%d", id)), storage.Options{})
		if err != nil {
			return fmt.Errorf("open WAL of replica %d: %w", id, err)
		}
		store = wal
	}
	l := &life{}
	if c.traced {
		p := newProbes(c.window)
		cs, ver, codec = timedSuite{suite, p}, timedVerifier{ver, p}, timedCodec{codec, p}
		if store != nil {
			store = timedStore{store, p}
		}
		l.probes, l.tracer = p, obs.NewTracer(c.ringCap)
	}
	node, err := leopard.NewNode(leopard.Config{
		ID:            id,
		Quorum:        c.q,
		Suite:         cs,
		DatablockSize: datablockSize,
		BFTBlockSize:  bftBlockSize,
		Store:         store,
		Verifier:      ver,
		Tracer:        l.tracer,
	})
	if err != nil {
		closeWAL(wal)
		return err
	}
	node.SetReplySink(c.onReply)
	var tn transport.Node = node
	if c.traced {
		tn = timedNode{Node: node, p: l.probes, started: func(zero time.Time) {
			c.mu.Lock()
			l.zero = zero
			c.mu.Unlock()
		}}
	}
	rt, err := tcp.New(tcp.Config{Self: id, Addrs: c.addrs, Codec: codec, Tracer: l.tracer}, tn)
	if err != nil {
		closeWAL(wal)
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &replica{id: id, node: node, rt: rt, wal: wal, probes: l.probes, cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- rt.Run(ctx) }()
	c.mu.Lock()
	c.reps[id] = r
	c.lives = append(c.lives, l)
	c.mu.Unlock()
	return nil
}

func closeWAL(wal *storage.Log) {
	if wal != nil {
		wal.Close()
	}
}

// stop crashes replica id: its apply loop ends and its WAL is closed, so
// a later start recovers from the directory alone. The runtime's Run
// returns later: its readers wait for each peer's next frame or close
// (an idle peer sends nothing), so close joins it with the rest.
func (c *cluster) stop(id types.ReplicaID) error {
	c.mu.Lock()
	r := c.reps[id]
	c.reps[id] = nil
	c.mu.Unlock()
	if r == nil {
		return fmt.Errorf("replica %d is not running", id)
	}
	c.retire(r)
	c.mu.Lock()
	c.stopped = append(c.stopped, r)
	c.mu.Unlock()
	return nil
}

// retire cancels r and, once its apply loop has ended, records its
// transport counters and closes its WAL.
func (c *cluster) retire(r *replica) {
	r.cancel()
	<-r.rt.Done()
	t := transportTotals(r.rt, c.n)
	c.mu.Lock()
	c.retired.evictions += t.evictions
	c.retired.drops += t.drops
	c.retired.peakQueued = max(c.retired.peakQueued, t.peakQueued)
	c.mu.Unlock()
	closeWAL(r.wal)
}

// close stops every running replica and waits for every runtime started,
// stopped ones included. Runtimes are cancelled together: a runtime's
// shutdown waits for its peers to close their connections.
func (c *cluster) close() {
	c.mu.Lock()
	reps := append([]*replica(nil), c.reps...)
	clear(c.reps)
	stopped := c.stopped
	c.stopped = nil
	c.mu.Unlock()
	for _, r := range reps {
		if r != nil {
			r.cancel()
		}
	}
	for _, r := range reps {
		if r != nil {
			c.retire(r)
			<-r.done
		}
	}
	for _, r := range stopped {
		<-r.done
	}
}

func (c *cluster) replica(id types.ReplicaID) *replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reps[id]
}

var errDown = errors.New("replica is down")

// call runs fn on replica id's apply loop and waits for it to finish.
func (c *cluster) call(id types.ReplicaID, fn func(r *replica, now time.Duration)) error {
	r := c.replica(id)
	if r == nil {
		return errDown
	}
	done := make(chan struct{})
	err := r.rt.Inject(func(now time.Duration, _ transport.Sink) {
		defer close(done)
		fn(r, now)
	})
	if err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-r.rt.Done():
		select {
		case <-done:
			return nil
		default:
			return errDown
		}
	}
}

// nodeView is what the output check and the metrics read from one node.
type nodeView struct {
	id         types.ReplicaID
	executedTo types.SeqNum
	state      types.Hash
	stats      leopard.Stats
}

// views reads every running replica on its own apply loop.
func (c *cluster) views() []nodeView {
	var out []nodeView
	for id := 0; id < c.n; id++ {
		var v nodeView
		err := c.call(types.ReplicaID(id), func(r *replica, _ time.Duration) {
			v = nodeView{id: r.id, executedTo: r.node.ExecutedTo(), state: r.node.ExecutionState(), stats: r.node.Stats()}
		})
		if err == nil {
			out = append(out, v)
		}
	}
	return out
}

func transportTotals(rt *tcp.Runtime, n int) tcpTotals {
	s := rt.StreamTotals()
	t := tcpTotals{peakQueued: s.PeakQueuedBytes, evictions: s.Evictions}
	for id := 0; id < n; id++ {
		t.drops += rt.Drops(types.ReplicaID(id))
	}
	return t
}

// tcpTotals sums transport counters over every incarnation so far.
func (c *cluster) tcpTotals() tcpTotals {
	c.mu.Lock()
	t := c.retired
	reps := append([]*replica(nil), c.reps...)
	c.mu.Unlock()
	for _, r := range reps {
		if r == nil {
			continue
		}
		rt := transportTotals(r.rt, c.n)
		t.evictions += rt.evictions
		t.drops += rt.drops
		t.peakQueued = max(t.peakQueued, rt.peakQueued)
	}
	return t
}

// allProbes returns the probes of every incarnation so far.
func (c *cluster) allProbes() []*probes {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*probes, 0, len(c.lives))
	for _, l := range c.lives {
		if l.probes != nil {
			out = append(out, l.probes)
		}
	}
	return out
}
