package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/mempool"
	"leopard/internal/metrics"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// workload is one benchmark input: cluster size, offered rate and fault
// schedule.
type workload struct {
	name string
	n    int
	// rate is the open loop's fixed offered rate, in requests per second.
	rate float64
	// durable gives each replica its own storage.Open WAL directory.
	durable bool
	// failover stops the view-1 leader a quarter into the window and
	// restarts it from its directory at half-way.
	failover bool
	// recovers stops a follower after each segment's drain and restarts
	// it from its WAL directory: the output check then requires the
	// replayed state to match its peers', and catchup_s times it.
	recovers bool
	// search follows the window with a rate search for max_rate_rps.
	search bool
}

var workloads = []workload{
	{name: "n4-light", n: 4, rate: 200},
	{name: "n4-peak", n: 4, rate: peakRate, search: true},
	{name: "n16-light", n: 16, rate: 20},
	{name: "n4-durable", n: 4, rate: 200, durable: true, recovers: true},
	{name: "n4-failover", n: 4, rate: 200, durable: true, failover: true},
}

const (
	// peakRate is about half of max_rate_rps as measured on the commit
	// that introduced this benchmark (2-core Xeon; the knee fell between
	// 6000 and 9000 req/s from run to run), frozen so that later commits
	// are measured at the same offered load. At 4500 req/s the window's
	// p99 doubled in some runs with the machine's background load.
	peakRate = 3000
	// segments is how many clusters a run builds, one per stretch of the
	// window; segWarmup is each one's unmeasured lead-in. The failover
	// workload measures one cluster through a longer warm-up.
	segments  = 8
	segWarmup = 300 * time.Millisecond
	warmup    = time.Second
	// drainFor bounds the wait for outstanding certificates after the
	// window; a request still uncertified then has failed.
	drainFor = 10 * time.Second
	// p99Limit is the latency limit max_rate_rps is searched under.
	p99Limit = 250 * time.Millisecond
	trialFor = 2 * time.Second
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named result with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// snapshot is the state read at a window edge.
type snapshot struct {
	at          time.Duration
	cpu         time.Duration
	layers      layerTotals
	views       []nodeView
	verdicts    verdictCounts
	retransmits int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// segment is one measured stretch of a run on its own cluster.
type segment struct {
	p     phase
	snaps [2]snapshot
}

// bench runs workload w once and returns its result. Human-readable
// detail goes to log.
//
// The window is split into segments, each on a freshly built cluster:
// every runtime starts its timers at its own instant, and the phase
// offsets between replicas' batching and pacing timers move a cluster's
// median latency by several milliseconds for its whole life, so one
// cluster per run would make runs disagree. Each build is also a timed
// set-up, and setup_s is their median.
func bench(w workload, seed uint64, seconds int, traced bool, dir string, log io.Writer) (result, error) {
	window := time.Duration(seconds) * time.Second
	segs, warm := segments, segWarmup
	if w.failover {
		segs, warm = 1, warmup
	}
	segLen := window / time.Duration(segs)
	clusterSeed := []byte(fmt.Sprintf("livebench-%d", seed))
	keys, err := client.NewKeychain(numClients+1, clusterSeed)
	if err != nil {
		return result{}, err
	}
	g := newGenerator(w.n, seed, keys)
	g.epoch = time.Now()
	parts := make([]segment, segs)
	for k := range parts {
		parts[k].p.lo, parts[k].p.hi = g.prepare(int(w.rate * (warm + segLen).Seconds()))
	}
	walRoot := ""
	if w.durable {
		walRoot = filepath.Join(dir, fmt.Sprintf("wal-%d", os.Getpid()))
		defer os.RemoveAll(walRoot)
	}
	// Ring room for every event of a segment: about one reply per request
	// per replica, plus admission and per-block events.
	ringCap := int(w.rate*(warm+segLen+2*time.Second).Seconds())*2 + 1<<16

	var (
		inWindow atomic.Bool
		setupS   []float64
		stateErr error
		catchups []float64
		replayed int64
		acc      layerAcc
		restart  = types.ReplicaID(w.n) // none inside the window
	)
	if w.failover {
		restart = types.LeaderOf(1, w.n)
	}
	recoverer := types.ReplicaID(w.n - 1) // a follower, so no view change
	for k := range parts {
		sg := &parts[k]
		walDir := ""
		if walRoot != "" {
			walDir = filepath.Join(walRoot, fmt.Sprint(k))
		}
		t0 := time.Now()
		c, err := newCluster(w.n, clusterSeed, walDir, traced, &inWindow, ringCap, g.onReply)
		if err != nil {
			return result{}, err
		}
		if err := probe(c, g, keys, seed); err != nil {
			c.close()
			return result{}, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())

		start := g.now() + 10*time.Millisecond
		sg.p = phase{lo: sg.p.lo, hi: sg.p.hi, rate: w.rate, start: start,
			winFrom: start + warm, winTo: start + warm + segLen, retransmit: true}
		var (
			fo    failoverResult
			foErr error
			wg    sync.WaitGroup
		)
		takeSnap := func(s *snapshot) {
			s.at, s.cpu = g.now(), cpuTime()
			if traced {
				s.layers = sumProbes(c.allProbes())
			}
			s.views = c.views()
			s.verdicts, s.retransmits = g.verdictCounts(), g.retransmits.Load()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sleepUntil(g, sg.p.winFrom)
			takeSnap(&sg.snaps[0])
			inWindow.Store(true)
			if w.failover {
				fo, foErr = failover(c, g, restart, sg.p.winFrom+segLen/4, sg.p.winFrom+segLen/2, sg.p.winTo+drainFor)
			}
			sleepUntil(g, sg.p.winTo)
			inWindow.Store(false)
			takeSnap(&sg.snaps[1])
		}()
		g.run(c, sg.p, sg.p.winTo+drainFor)
		wg.Wait()
		if foErr != nil {
			c.close()
			return result{}, foErr
		}
		// Replica states are checked while the segment's cluster runs.
		views, err := c.settle(time.Now().Add(15 * time.Second))
		if err == nil && w.recovers {
			now := g.now()
			fo, err = failover(c, g, recoverer, now, now, now+drainFor)
			if err == nil {
				_, err = c.settle(time.Now().Add(15 * time.Second))
			}
		}
		if err != nil {
			stateErr = errors.Join(stateErr, fmt.Errorf("segment %d: %w", k, err))
		}
		if w.failover || w.recovers {
			catchups = append(catchups, fo.catchup.Seconds())
			replayed += fo.replayed
		}
		if traced {
			acc.add(c, g, sg.p, sg.snaps, views, restart)
		}
		c.close()
	}
	// CPU, goodput, verdicts and retransmits are taken between the
	// snapshots at each window's edges, on the clock readings the
	// snapshots recorded; attempted and failed count the segments'
	// requests. None includes the rate search's trials. cpu_ms_per_req is
	// the median of the segments' figures: a burst of other work on the
	// machine then moves one segment, not the run.
	phases := make([]phase, segs)
	var (
		cpu, span   time.Duration
		measured    int
		cpuPerReq   []float64
		verdicts    verdictCounts
		retransmits int64
	)
	for k, sg := range parts {
		phases[k] = sg.p
		segCPU := sg.snaps[1].cpu - sg.snaps[0].cpu
		segCerts := g.certsIn(sg.snaps[0].at, sg.snaps[1].at)
		cpu += segCPU
		span += sg.snaps[1].at - sg.snaps[0].at
		measured += segCerts
		cpuPerReq = append(cpuPerReq, ms(segCPU)/float64(max(segCerts, 1)))
		for v := range verdicts {
			verdicts[v] += sg.snaps[1].verdicts[v] - sg.snaps[0].verdicts[v]
		}
		retransmits += sg.snaps[1].retransmits - sg.snaps[0].retransmits
	}
	ws := g.windowStats(phases)
	attempted, failed := g.outcome(phases)

	maxRate := 0.0
	if traced && w.search {
		if ws.p99 <= p99Limit {
			maxRate = float64(measured) / span.Seconds()
		}
		var searchErr error
		maxRate, searchErr = searchRate(w, g, keys, seed, clusterSeed, maxRate, log)
		stateErr = errors.Join(stateErr, searchErr)
	}

	// The rest of the output check, off the clock.
	verifier, err := crypto.NewEd25519Suite(w.n, clusterSeed)
	if err != nil {
		return result{}, err
	}
	badShares, conflicts := g.checkReplies(verifier)
	res := result{Attempted: attempted, Failed: failed}
	fmt.Fprintf(log, "workload %s: n=%d rate=%.0f req/s window=%v in %d segments seed=%d traced=%v\n",
		w.name, w.n, w.rate, window, segs, seed, traced)
	fmt.Fprintf(log, "check: state=%v bad_shares=%d conflicts=%d failed=%d/%d (fail_ratio %.6f)\n",
		errString(stateErr), badShares, conflicts, failed, attempted, float64(failed)/float64(attempted))
	fmt.Fprintf(log, "window verdicts: %s\n", verdicts)
	if stateErr != nil || badShares > 0 || conflicts > 0 || measured < 1 {
		return res, nil
	}
	res.Correct = true

	e2e := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"p50_ms":         {ms(ws.p50), "ms"},
		"p99_ms":         {ms(ws.p99), "ms"},
		"goodput_rps":    {float64(measured) / span.Seconds(), "req/s"},
		"cpu_ms_per_req": {median(cpuPerReq), "ms"},
	}
	extra := map[string]metric{
		"fail_ratio":    {float64(failed) / float64(attempted), "ratio"},
		"gap_s":         {ws.gap.Seconds(), "s"},
		"catchup_s":     {medianOr0(catchups), "s"},
		"max_rate_rps":  {maxRate, "req/s"},
		"gen.cpu_share": {cpu.Seconds() / (span.Seconds() * float64(runtime.GOMAXPROCS(0))), "ratio"},
		"gen.samples":   {float64(ws.samples), "count"},
	}
	fmt.Fprintf(log, "sizing: samples=%d cpu_share=%.3f late_p99=%.3fms retransmits=%d gap=%.3fs setup=%.3f catchup=%.3f replayed=%d cpu_ms_per_req=%.3f\n",
		ws.samples, extra["gen.cpu_share"].Value, ms(ws.lateP99), retransmits, ws.gap.Seconds(), setupS, catchups, replayed, cpuPerReq)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = acc.metrics(ws, measured, verdicts, retransmits, replayed)
	for k, v := range e2e {
		res.Metrics["traced."+k] = v
	}
	for k, v := range extra {
		res.Metrics[k] = v
	}
	return res, nil
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func sleepUntil(g *generator, at time.Duration) {
	if d := at - g.now(); d > 0 {
		time.Sleep(d)
	}
}

// probe submits the set-up probe request and waits for its certificate,
// retransmitting as a client would while the mesh comes up.
func probe(c *cluster, g *generator, keys *client.Keychain, seed uint64) error {
	req := types.Request{ClientID: probeClient, Payload: payload(seed, math.MaxUint64)}
	sig, err := keys.Sign(req)
	if err != nil {
		return err
	}
	done := g.armProbe()
	origin := origins(c.n)[0]
	deadline := time.After(30 * time.Second)
	for attempt := 0; ; attempt++ {
		targets := []types.ReplicaID{origin}
		if attempt > 0 {
			targets = client.RetransmitSet(c.n, g.f, attempt-1, origin)
		}
		for _, id := range targets {
			if r := c.replica(id); r != nil {
				r.rt.Inject(func(now time.Duration, _ transport.Sink) { r.node.SubmitSigned(now, req, sig) })
			}
		}
		select {
		case <-done:
			return nil
		case <-deadline:
			return fmt.Errorf("probe request not certified within 30s")
		case <-time.After(patience):
		}
	}
}

// windowStats are the generator-side figures of the measured windows.
type windowStats struct {
	samples  int // requests due inside the windows
	p50, p99 time.Duration
	gap      time.Duration // longest stretch of a window with no certificate
	lateP99  time.Duration
}

// windowStats computes latency over the requests due inside the phases'
// windows, from due time to certificate; a request never certified counts
// at the drain deadline, past every latency limit.
func (g *generator) windowStats(ps []phase) windowStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ws windowStats
	var lat, late metrics.LatencyRecorder
	for _, p := range ps {
		var certAt []time.Duration
		for i := range g.st {
			s := &g.st[i]
			if s.certified && s.certAt >= p.winFrom && s.certAt <= p.winTo {
				certAt = append(certAt, s.certAt)
			}
			if i < p.lo || i >= p.hi || s.due < p.winFrom || s.due >= p.winTo {
				continue
			}
			if s.certified {
				lat.Add(s.certAt - s.due)
			} else {
				lat.Add(p.winTo + drainFor - s.due)
			}
		}
		slices.Sort(certAt)
		prev := p.winFrom
		for _, at := range append(certAt, p.winTo) {
			ws.gap = max(ws.gap, at-prev)
			prev = at
		}
	}
	for _, d := range g.late {
		late.Add(d)
	}
	ws.samples = lat.Count()
	ws.p50, ws.p99 = lat.Percentile(50), lat.Percentile(99)
	ws.lateP99 = late.Percentile(99)
	return ws
}

// certsIn counts the certificates completed in [from, to].
func (g *generator) certsIn(from, to time.Duration) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for i := range g.st {
		if s := &g.st[i]; s.certified && s.certAt >= from && s.certAt <= to {
			n++
		}
	}
	return n
}

// outcome counts the phases' requests sent and those never certified.
func (g *generator) outcome(ps []phase) (attempted, failed int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range ps {
		for i := p.lo; i < p.hi; i++ {
			if g.st[i].sent {
				attempted++
				if !g.st[i].certified {
					failed++
				}
			}
		}
	}
	return attempted, failed
}

// verdictCounts is a count of admission verdicts, indexed by verdict.
type verdictCounts [mempool.BadSignature + 1]int64

func (g *generator) verdictCounts() verdictCounts {
	var c verdictCounts
	for v := range c {
		c[v] = g.verdicts[v].Load()
	}
	return c
}

func (c verdictCounts) String() string {
	s := ""
	for v, n := range c {
		s += fmt.Sprintf("%s=%d ", mempool.Verdict(v), n)
	}
	return s
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

type failoverResult struct {
	catchup  time.Duration
	replayed int64 // WAL records the restarted replica replayed at start
}

// failover stops replica id at stopAt and restarts it from its WAL
// directory at restartAt, then times its catch-up: restart until its
// ExecutedTo reaches what its peers had executed a moment before.
func failover(c *cluster, g *generator, id types.ReplicaID, stopAt, restartAt, deadline time.Duration) (failoverResult, error) {
	sleepUntil(g, stopAt)
	if err := c.stop(id); err != nil {
		return failoverResult{}, fmt.Errorf("stop replica %d: %w", id, err)
	}
	sleepUntil(g, restartAt)
	t0 := g.now()
	if err := c.start(id); err != nil {
		return failoverResult{}, fmt.Errorf("restart replica %d: %w", id, err)
	}
	for g.now() < deadline {
		peers := types.SeqNum(math.MaxUint64)
		for _, v := range c.views() {
			if v.id != id {
				peers = min(peers, v.executedTo)
			}
		}
		var (
			own      types.SeqNum
			replayed int64
		)
		err := c.call(id, func(r *replica, _ time.Duration) {
			own, replayed = r.node.ExecutedTo(), r.node.Stats().BlocksReplayed
		})
		if err == nil && own >= peers {
			return failoverResult{catchup: g.now() - t0, replayed: replayed}, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return failoverResult{}, fmt.Errorf("replica %d did not catch up", id)
}
