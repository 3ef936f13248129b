package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leopard/internal/client"
	"leopard/internal/crypto"
)

// The output check runs after the measured window, off the clock. A run
// that fails it reports no numbers.

// checkReplies verifies, against client.ReplyDigest, every share that was
// counted toward a certificate, and counts requests certified with two
// different results.
func (g *generator) checkReplies(suite crypto.Suite) (badShares, conflicts int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var bad atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(g.st); i += workers {
				r := g.reqs[i].req
				for _, cl := range g.st[i].counted {
					d := client.ReplyDigest(r.ClientID, r.Seq, cl.sn, cl.result)
					if suite.VerifyShare(d, crypto.Share{Signer: cl.signer, Sig: cl.sig}) != nil {
						bad.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range g.st {
		if g.st[i].conflict {
			conflicts++
		}
	}
	return bad.Load(), conflicts
}

// compareStates requires every replica to have executed to the same
// serial number with the same execution chain hash.
func compareStates(vs []nodeView) error {
	if len(vs) == 0 {
		return fmt.Errorf("no replica answered")
	}
	for _, v := range vs[1:] {
		if v.executedTo != vs[0].executedTo {
			return fmt.Errorf("replica %d executed to %d, replica %d to %d", v.id, v.executedTo, vs[0].id, vs[0].executedTo)
		}
		if v.state != vs[0].state {
			return fmt.Errorf("replica %d and replica %d diverge at %d: state %x vs %x", v.id, vs[0].id, v.executedTo, v.state[:8], vs[0].state[:8])
		}
	}
	return nil
}

// settle waits, until deadline, for every replica to be running and to
// have executed to the same serial number, then compares their states.
func (c *cluster) settle(deadline time.Time) ([]nodeView, error) {
	for {
		vs := c.views()
		err := compareStates(vs)
		if err == nil && len(vs) < c.n {
			err = fmt.Errorf("%d of %d replicas running", len(vs), c.n)
		}
		if err == nil || time.Now().After(deadline) {
			return vs, err
		}
		// Unequal frontiers settle; a divergence at equal frontiers is final.
		if len(vs) == c.n && sameFrontier(vs) {
			return vs, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func sameFrontier(vs []nodeView) bool {
	for _, v := range vs[1:] {
		if v.executedTo != vs[0].executedTo {
			return false
		}
	}
	return true
}
