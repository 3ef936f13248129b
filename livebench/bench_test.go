package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/types"
)

// certCount returns the number of certified requests in [lo, hi).
func (g *generator) certCount(lo, hi int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for i := lo; i < hi; i++ {
		if g.st[i].certified {
			n++
		}
	}
	return n
}

// replyFrom builds replica id's signed reply for request idx of g.
func replyFrom(t *testing.T, suite crypto.Suite, g *generator, idx int, id types.ReplicaID, sn types.SeqNum, result types.Hash) leopard.ReplyMsg {
	t.Helper()
	r := g.reqs[idx].req
	share, err := suite.Sign(id, client.ReplyDigest(r.ClientID, r.Seq, sn, result))
	if err != nil {
		t.Fatal(err)
	}
	return leopard.ReplyMsg{Client: r.ClientID, Seq: r.Seq, SN: sn, Result: result, Share: share}
}

func checkFixture(t *testing.T) (*generator, crypto.Suite) {
	t.Helper()
	seed := []byte("check-test")
	keys, err := client.NewKeychain(numClients+1, seed)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(4, seed)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(4, 7, keys)
	g.prepare(3)
	return g, suite
}

func TestCheckAcceptsHonestReplies(t *testing.T) {
	g, suite := checkFixture(t)
	for idx := 0; idx < 3; idx++ {
		for id := types.ReplicaID(0); id < 4; id++ {
			g.onReply(replyFrom(t, suite, g, idx, id, types.SeqNum(10+idx), types.Hash{byte(idx)}))
		}
	}
	if bad, conflicts := g.checkReplies(suite); bad != 0 || conflicts != 0 {
		t.Fatalf("honest replies: %d bad shares, %d conflicts", bad, conflicts)
	}
	if g.certCount(0, 3) != 3 {
		t.Fatalf("certified %d of 3 requests", g.certCount(0, 3))
	}
}

func TestCheckCatchesForgedShare(t *testing.T) {
	g, suite := checkFixture(t)
	honest := replyFrom(t, suite, g, 0, 0, 10, types.Hash{1})
	forged := replyFrom(t, suite, g, 0, 1, 10, types.Hash{1})
	forged.Share.Sig = append([]byte(nil), forged.Share.Sig...)
	forged.Share.Sig[0] ^= 0xff
	g.onReply(honest)
	g.onReply(forged) // completes the f+1 certificate with a bad share
	if g.certCount(0, 1) != 1 {
		t.Fatal("forged share did not count toward the certificate")
	}
	if bad, _ := g.checkReplies(suite); bad != 1 {
		t.Fatalf("check found %d bad shares, want 1", bad)
	}
}

func TestCheckCatchesTwoResults(t *testing.T) {
	g, suite := checkFixture(t)
	for id := types.ReplicaID(0); id < 2; id++ {
		g.onReply(replyFrom(t, suite, g, 0, id, 10, types.Hash{1}))
	}
	for id := types.ReplicaID(2); id < 4; id++ {
		g.onReply(replyFrom(t, suite, g, 0, id, 11, types.Hash{2}))
	}
	if _, conflicts := g.checkReplies(suite); conflicts != 1 {
		t.Fatalf("check found %d conflicting requests, want 1", conflicts)
	}
}

func TestCompareStatesCatchesDivergence(t *testing.T) {
	same := []nodeView{{id: 0, executedTo: 9, state: types.Hash{1}}, {id: 1, executedTo: 9, state: types.Hash{1}}}
	if err := compareStates(same); err != nil {
		t.Fatalf("identical replicas: %v", err)
	}
	diverged := []nodeView{{id: 0, executedTo: 9, state: types.Hash{1}}, {id: 1, executedTo: 9, state: types.Hash{2}}}
	if err := compareStates(diverged); err == nil || !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("divergent state not reported: %v", err)
	}
	behind := []nodeView{{id: 0, executedTo: 9, state: types.Hash{1}}, {id: 1, executedTo: 8, state: types.Hash{1}}}
	if err := compareStates(behind); err == nil {
		t.Fatal("unequal frontiers not reported")
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// smoke runs a short window of one workload and requires a passing output
// check and every declared metric.
func smoke(t *testing.T, name string, seconds int, traced bool) result {
	if testing.Short() {
		t.Skip("live cluster run")
	}
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	var log strings.Builder
	res, err := bench(w, 1, seconds, traced, t.TempDir(), &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: output check failed: correct=%v failed=%d of %d\n%s", name, res.Correct, res.Failed, res.Attempted, log.String())
	}
	endToEnd, perLayer := declared(t)
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := res.Metrics[m]; !ok {
			t.Errorf("%s: metric %s missing", name, m)
		}
	}
	return res
}

func TestSmokeN4Light(t *testing.T)       { smoke(t, "n4-light", 2, false) }
func TestSmokeN4LightTraced(t *testing.T) { smoke(t, "n4-light", 2, true) }
func TestSmokeN4Peak(t *testing.T)        { smoke(t, "n4-peak", 2, false) }
func TestSmokeN4PeakTraced(t *testing.T)  { smoke(t, "n4-peak", 2, true) }
func TestSmokeN16Light(t *testing.T)      { smoke(t, "n16-light", 2, false) }
func TestSmokeN4Durable(t *testing.T)     { smoke(t, "n4-durable", 2, false) }

// TestSmokeN4DurableTraced requires the durable workload to exercise the
// storage layer: votes and blocks appended inside the window, and WAL
// records replayed by the replica restarted after each segment.
func TestSmokeN4DurableTraced(t *testing.T) {
	res := smoke(t, "n4-durable", 2, true)
	for _, m := range []string{"storage.append_vote.calls_per_block", "storage.append.us_per_block", "storage.replayed_blocks", "catchup_s"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
}

// TestSmokeN4Failover fails while the program executes a retransmitted
// request a second time at a later serial number: the check then sees two
// certificates with different (SN, result) for one request.
func TestSmokeN4Failover(t *testing.T) { smoke(t, "n4-failover", 8, false) }
