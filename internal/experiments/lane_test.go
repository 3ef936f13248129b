package experiments

import (
	"testing"
	"time"
)

// singleQueueConverged is the n=8 view-change convergence of the
// single-FIFO baseline (control queued behind bulk) that strict lanes
// replaced. The baseline is gone; its recorded result stays as the bound.
const singleQueueConverged = 431 * time.Millisecond

// TestViewChangeUnderBulkLanesWin is the simnet half of the lane-priority
// regression: with every link saturated by datablock traffic, view-change
// convergence under strict control-over-bulk lanes must beat the
// single-FIFO baseline by at least 5x (the control path no longer queues
// behind megabytes of bulk). The simulation is deterministic, so the
// bound is stable.
func TestViewChangeUnderBulkLanesWin(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rows, err := ViewChangeUnderBulk([]int{8})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	t.Logf("n=%d laned=%v", r.N, r.Laned)
	if r.Laned <= 0 {
		t.Fatal("view change did not converge")
	}
	if limit := singleQueueConverged / 5; r.Laned > limit {
		t.Errorf("laned convergence %v over %v (a fifth of the single-queue %v)", r.Laned, limit, singleQueueConverged)
	}
}
