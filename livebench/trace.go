package main

import (
	"time"

	"leopard/internal/obs"
)

// Every tcp.Runtime stamps events with the time since its own Run, so each
// replica incarnation has its own clock origin. alignedTrace moves each
// incarnation's events onto the generator's clock (its recorded origin
// minus the generator epoch), keeps those inside [from, to], and gives
// each incarnation its own tracer, so obs.StageBreakdown's cross-replica
// min-reduction compares instants of one clock.
func alignedTrace(lives []*life, epoch time.Time, from, to time.Duration) *obs.TraceSet {
	events := make([][]obs.Event, len(lives))
	capacity := 1
	for i, l := range lives {
		events[i] = l.tracer.Events()
		capacity = max(capacity, len(events[i]))
	}
	ts := obs.NewTraceSet("live", len(lives), capacity)
	for i, l := range lives {
		shift := l.zero.Sub(epoch)
		out := ts.Tracer(i)
		for _, e := range events[i] {
			at := e.At + shift
			if at >= from && at <= to {
				out.Emit(at, e.Kind, e.View, e.ID, e.Aux)
			}
		}
	}
	return ts
}

// stages names the obs.StageBreakdown rows. Dissemination is summed per
// datablock; the other stages per serial number.
var stages = []struct {
	metric, row string
	perBlock    bool
}{
	{"stage.dissemination_ms", obs.StageDissemination, false},
	{"stage.notarization_ms", obs.StageNotarization, true},
	{"stage.confirmation_ms", obs.StageConfirmation, true},
	{"stage.execution_ms", obs.StageExecution, true},
}

// stageMeans turns obs.StageBreakdown's summed stage time over the given
// runs into a mean per object, in milliseconds: per datablock made and per
// block executed inside the windows.
func stageMeans(runs []*obs.TraceSet, made, blocks int64) map[string]float64 {
	totals := make(map[string]time.Duration)
	for _, row := range obs.StageBreakdown(runs) {
		totals[row.Stage] = row.Total
	}
	out := make(map[string]float64, len(stages))
	for _, s := range stages {
		n := made
		if s.perBlock {
			n = blocks
		}
		out[s.metric] = ms(totals[s.row]) / float64(max(n, 1))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
