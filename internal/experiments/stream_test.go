package experiments

import (
	"testing"
	"time"
)

// testStreamParams shrinks the stream scenario so the regression runs in
// seconds: ~70 KiB datablocks, a 10 Mbps slow receiver on 100 Mbps links
// and a 32 KiB credit window.
func testStreamParams() streamParams {
	return streamParams{
		dbRequests: 512,
		blocksPer:  3,
		linkBps:    100e6,
		slowBps:    10e6,
		window:     32 << 10,
		chunk:      8 << 10,
		parkBudget: 8 << 20,
		timeout:    90 * time.Second,
	}
}

// dropBaselineConverged is how long the drop-on-overflow bulk queue that
// credit streaming replaced took to converge under testStreamParams (a
// 128 KiB queue shedding datablocks, the slow replica repairing them by
// retrieval). The baseline is gone; its recorded result stays as the bound
// the credit run must beat.
const dropBaselineConverged = 4230 * time.Millisecond

// TestStreamScenarioCreditVsDrop is the acceptance regression for the
// streamed bulk lane: with one slow receiver under a datablock fan-out,
// the credit-based run must complete with zero bulk drops and no
// retrieval repair, faster than the drop-on-overflow baseline did.
func TestStreamScenarioCreditVsDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	stream, err := streamOnce(4, testStreamParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stream: %+v", stream)

	// The credit run parks instead of dropping: every datablock arrives
	// by dissemination, so no transport loss and no repair traffic.
	if stream.BulkDrops != 0 {
		t.Errorf("credit run dropped %d bulk frames, want 0", stream.BulkDrops)
	}
	if stream.Retrievals != 0 {
		t.Errorf("credit run needed %d retrievals, want 0", stream.Retrievals)
	}
	// The backlog it parked instead must be visible — and bounded by the
	// park budget.
	if stream.PeakQueuedBytes == 0 {
		t.Error("credit run recorded no parked backlog despite the slow receiver")
	}
	if stream.PeakQueuedBytes > testStreamParams().parkBudget {
		t.Errorf("parked %d bytes over the %d budget", stream.PeakQueuedBytes, testStreamParams().parkBudget)
	}
	// Repairing after the fact cannot beat never losing the data.
	if stream.Converged > dropBaselineConverged {
		t.Errorf("credit run converged in %v, slower than the drop baseline's %v",
			stream.Converged, dropBaselineConverged)
	}
}
