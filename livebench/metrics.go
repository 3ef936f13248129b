package main

import (
	"time"

	"leopard/internal/mempool"
	"leopard/internal/metrics"
	"leopard/internal/obs"
	"leopard/internal/types"
)

// layerAcc accumulates the traced run's per-layer inputs over the
// measured segments, each on its own cluster.
type layerAcc struct {
	layers                  layerTotals // work inside the windows
	made, blocks, confirmed int64       // protocol counters inside the windows
	viewChanges, retrievals int64       // whole-cluster totals
	tcp                     tcpTotals
	voteNs, waitNs          metrics.LatencyRecorder
	traces                  []*obs.TraceSet // one per segment, on the generator's clock
}

// add folds in one segment: its cluster, its phase and the snapshots at
// its window's edges. A replica restarted inside the window starts its
// counters from zero, so only replicas that ran throughout are summed.
func (a *layerAcc) add(c *cluster, g *generator, p phase, snaps [2]snapshot, final []nodeView, restarted types.ReplicaID) {
	a.layers = a.layers.add(snaps[1].layers, 1).add(snaps[0].layers, -1)
	for _, v1 := range snaps[1].views {
		for _, v0 := range snaps[0].views {
			if v0.id != v1.id || v1.id == restarted {
				continue
			}
			a.made += v1.stats.DatablocksMade - v0.stats.DatablocksMade
			if v1.id == 0 {
				a.blocks += v1.stats.ExecutedBlocks - v0.stats.ExecutedBlocks
				a.confirmed += v1.stats.ConfirmedRequests - v0.stats.ConfirmedRequests
			}
		}
	}
	for _, v := range final {
		if v.id == 0 {
			a.viewChanges += v.stats.ViewChanges
		}
		a.retrievals += v.stats.Retrievals
	}
	t := c.tcpTotals()
	a.tcp.evictions += t.evictions
	a.tcp.drops += t.drops
	a.tcp.peakQueued = max(a.tcp.peakQueued, t.peakQueued)
	for _, pr := range c.allProbes() {
		pr.mu.Lock()
		for _, x := range pr.voteNs {
			a.voteNs.Add(time.Duration(x))
		}
		for _, x := range pr.waitNs {
			a.waitNs.Add(time.Duration(x))
		}
		pr.mu.Unlock()
	}
	c.mu.Lock()
	lives := append([]*life(nil), c.lives...)
	c.mu.Unlock()
	a.traces = append(a.traces, alignedTrace(lives, g.epoch, p.winFrom, p.winTo))
}

// metrics turns the accumulated inputs into the per-layer figures.
// Per-request figures divide work done inside the windows by the measured
// certificates completed inside them; per-block figures divide by the
// blocks replica 0 executed inside them. verdicts and retransmits are
// counted inside the windows; replayed is the WAL records replayed by
// restarted replicas.
func (a *layerAcc) metrics(ws windowStats, measured int, verdicts verdictCounts, retransmits, replayed int64) map[string]metric {
	d := a.layers
	certs := float64(max(measured, 1))
	blocks := float64(max(a.blocks, 1))
	perReq := func(v int64) float64 { return float64(v) / certs }
	usPerReq := func(ns int64) float64 { return float64(ns) / 1e3 / certs }
	us := func(x time.Duration) float64 { return float64(x) / 1e3 }

	var total, admitted int64
	for v, n := range verdicts {
		total += n
		if mempool.Verdict(v).OK() {
			admitted += n
		}
	}
	count := func(v mempool.Verdict) float64 { return float64(verdicts[v]) }

	m := map[string]metric{
		"crypto.sign.calls_per_req":         {perReq(d.t[tSign][0]), "calls/req"},
		"crypto.sign.us_per_req":            {usPerReq(d.t[tSign][1]), "us/req"},
		"crypto.verify_share.calls_per_req": {perReq(d.t[tVerifyShare][0]), "calls/req"},
		"crypto.verify_share.us_per_req":    {usPerReq(d.t[tVerifyShare][1]), "us/req"},
		"crypto.verify_proof.calls_per_req": {perReq(d.t[tVerifyProof][0]), "calls/req"},
		"crypto.verify_proof.us_per_req":    {usPerReq(d.t[tVerifyProof][1]), "us/req"},
		"crypto.combine.calls_per_req":      {perReq(d.t[tCombine][0]), "calls/req"},

		"client.verify_request.calls_per_req": {perReq(d.t[tVerifyReq][0]), "calls/req"},
		"client.verify_request.us_per_req":    {usPerReq(d.t[tVerifyReq][1]), "us/req"},

		"mempool.admit.us_per_req":     {usPerReq(d.t[tAdmit][1]), "us/req"},
		"mempool.admitted_ratio":       {float64(admitted) / float64(max(total, 1)), "ratio"},
		"mempool.verdict.dup_live":     {count(mempool.DupLive), "count"},
		"mempool.verdict.stale_seq":    {count(mempool.StaleSeq), "count"},
		"mempool.verdict.rate_limited": {count(mempool.RateLimited), "count"},
		"mempool.verdict.pool_full":    {count(mempool.PoolFull), "count"},

		"leopard.deliver.self_us_per_req": {usPerReq(d.t[tDeliver][1]), "us/req"},
		"leopard.tick.self_us_per_req":    {usPerReq(d.t[tTick][1]), "us/req"},
		"leopard.reqs_per_datablock":      {float64(a.confirmed) / float64(max(a.made, 1)), "req/dblock"},
		"leopard.datablocks_per_block":    {float64(a.made) / blocks, "dblock/block"},
		"leopard.view_changes":            {float64(a.viewChanges), "count"},
		"leopard.retrievals":              {float64(a.retrievals), "count"},

		"codec.encode.us_per_req": {usPerReq(d.t[tEncode][1]), "us/req"},
		"codec.decode.us_per_req": {usPerReq(d.t[tDecode][1]), "us/req"},
		"codec.bytes_per_req":     {perReq(d.encBytes), "B/req"},

		"tcp.inject_wait_us.p50": {us(a.waitNs.Percentile(50)), "us"},
		"tcp.inject_wait_us.p99": {us(a.waitNs.Percentile(99)), "us"},
		"tcp.peak_queued_bytes":  {float64(a.tcp.peakQueued), "B"},
		"tcp.evictions":          {float64(a.tcp.evictions), "count"},
		"tcp.drops":              {float64(a.tcp.drops), "count"},

		"storage.append_vote.calls_per_block": {float64(d.t[tAppendVote][0]) / blocks, "calls/block"},
		"storage.append_vote.us_p99":          {us(a.voteNs.Percentile(99)), "us"},
		"storage.append.us_per_block":         {float64(d.t[tAppend][1]) / 1e3 / blocks, "us/block"},
		"storage.replayed_blocks":             {float64(replayed), "count"},

		"gen.late_ms":             {ms(ws.lateP99), "ms"},
		"gen.retransmits_per_req": {float64(retransmits) / float64(max(ws.samples, 1)), "count/req"},
	}
	for k, v := range stageMeans(a.traces, a.made, a.blocks) {
		m[k] = metric{v, "ms"}
	}
	return m
}
