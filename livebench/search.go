package main

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"leopard/internal/client"
	"leopard/internal/metrics"
)

// searchRate looks for the highest offered rate that meets p99Limit with
// no growing backlog, on a fresh untraced cluster: a ladder of 2-second
// trials climbing 15% a step from the workload's rate, then two bisection
// steps between the last pass and the first failure. It returns the
// goodput measured in the highest passing trial, or best if none passed,
// after checking the cluster's replica states.
//
// Trials do not retransmit: past the knee every overdue request would add
// f+1 submissions, so the offered load would grow with the backlog and a
// trial would measure the retransmit policy instead of the cluster.
func searchRate(w workload, g *generator, keys *client.Keychain, seed uint64, clusterSeed []byte, best float64, log io.Writer) (float64, error) {
	var idle atomic.Bool
	c, err := newCluster(w.n, clusterSeed, "", false, &idle, 0, g.onReply)
	if err != nil {
		return 0, err
	}
	defer c.close()
	if err := probe(c, g, keys, seed); err != nil {
		return 0, fmt.Errorf("search set-up: %w", err)
	}
	try := func(rate float64) bool {
		lo, hi := g.prepare(int(rate * trialFor.Seconds()))
		start := g.now() + 10*time.Millisecond
		p := phase{lo: lo, hi: hi, rate: rate, start: start, winFrom: start, winTo: start + trialFor}
		g.run(c, p, p.winTo+drainFor)
		t := g.trialStats(p)
		fmt.Fprintf(log, "search: offered %.0f req/s: goodput %.1f p99 %.1fms backlog %d pass=%v\n",
			rate, t.goodput, ms(t.p99), t.backlog, t.pass)
		if t.pass {
			best = t.goodput
		}
		return t.pass
	}
	pass, fail := w.rate, 0.0
	for k := 1; k <= 10 && fail == 0; k++ {
		if r := w.rate * math.Pow(1.15, float64(k)); try(r) {
			pass = r
		} else {
			fail = r
		}
	}
	for b := 0; b < 2 && fail > 0; b++ {
		if mid := math.Sqrt(pass * fail); try(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	_, err = c.settle(time.Now().Add(15 * time.Second))
	return best, err
}

type trialStats struct {
	goodput float64
	p99     time.Duration
	backlog int // uncertified at the trial's end
	pass    bool
}

// trialStats judges one search trial: p99 over its requests (an
// uncertified one counts as past the limit), and whether the backlog of
// requests due but not yet certified grew over the trial's second half by
// more than a tenth of a second of arrivals, which means the cluster is
// falling behind the offered rate.
func (g *generator) trialStats(p phase) trialStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var t trialStats
	mid := (p.winFrom + p.winTo) / 2
	midBacklog := 0
	var lat metrics.LatencyRecorder
	for i := p.lo; i < p.hi; i++ {
		s := &g.st[i]
		done := s.certAt
		if !s.certified {
			done = math.MaxInt64
		}
		lat.Add(done - s.due)
		if done > p.winTo {
			t.backlog++
		}
		if s.due <= mid && done > mid {
			midBacklog++
		}
	}
	certs := 0
	for i := range g.st {
		if at := g.st[i].certAt; g.st[i].certified && at >= p.winFrom && at <= p.winTo {
			certs++
		}
	}
	t.goodput = float64(certs) / (p.winTo - p.winFrom).Seconds()
	t.p99 = lat.Percentile(99)
	growing := float64(t.backlog-midBacklog) > p.rate*0.1
	t.pass = t.p99 <= p99Limit && !growing
	return t
}
