package online_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/recordlog"
)

// TestOnlineRecordReplay is the flight-recorder e2e: a full 2000 s
// Figure 11 run over real loopback UDP is captured to disk, the
// capture is checked bitwise against the live run's telemetry, and
// mercury-replay's engine re-drives a fresh solver from the recorded
// util/fiddle log to bit-identical temperatures and events.
func TestOnlineRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2000s run; skipped in -short")
	}
	dir := t.TempDir()
	res, err := online.Run(online.Config{
		Duration: 2000 * time.Second,
		Script:   online.Fig11Script,
		Trace:    true,
		Record:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordPath == "" {
		t.Fatal("Config.Record set but Result.RecordPath empty")
	}
	if res.RecordDrops != 0 {
		t.Fatalf("recorder dropped %d records during a healthy run", res.RecordDrops)
	}

	log, err := recordlog.ReadLog(res.RecordPath)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Error("capture reports a truncated tail after a clean shutdown")
	}
	if log.Header.Node != "online" || !log.Header.Virtual() {
		t.Errorf("header = %+v, want node=online on the virtual clock", log.Header)
	}

	// Capture fidelity: the recorded event stream is the live one,
	// bit for bit.
	if len(log.Events) != len(res.Events) {
		t.Fatalf("captured %d events, live run had %d", len(log.Events), len(res.Events))
	}
	for i := range res.Events {
		if log.Events[i] != res.Events[i] {
			t.Fatalf("event %d differs:\n  captured: %s\n  live:     %s", i, log.Events[i], res.Events[i])
		}
	}
	// Spans compare canonically (Seq cleared, sorted, deduped) — the
	// same transform Result.Spans went through.
	spans := append([]causal.Span(nil), log.Spans...)
	for i := range spans {
		spans[i].Seq = 0
	}
	causal.Sort(spans)
	canon := spans[:0]
	for i := range spans {
		if i == 0 || spans[i] != spans[i-1] {
			canon = append(canon, spans[i])
		}
	}
	if len(canon) != len(res.Spans) {
		t.Fatalf("captured %d canonical spans, live run had %d", len(canon), len(res.Spans))
	}
	for i := range res.Spans {
		if canon[i] != res.Spans[i] {
			t.Fatalf("span %d differs:\n  captured: %s\n  live:     %s", i, canon[i], res.Spans[i])
		}
	}

	// A 2000 s run sampled every 10 steps must have banked its rows
	// and the second-by-second util stream.
	if len(log.TempRows) != 200 {
		t.Errorf("captured %d temp rows, want 200", len(log.TempRows))
	}
	if len(log.Inputs) < 2000 {
		t.Errorf("captured %d inputs over 2000 emulated seconds, want >= 2000", len(log.Inputs))
	}

	// Warp-speed re-drive: a fresh solver on the virtual clock,
	// bit-identical temps at every recorded row and every fiddle event
	// reproduced.
	cm, err := model.DefaultCluster("room", 4)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := recordlog.Replay(log, cm, recordlog.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replayed %d steps (%d rows, %d utils, %d fiddles) in %v",
		rep.Steps, rep.RowsCompared, rep.UtilsApplied, rep.FiddlesApplied, time.Since(start))
	if !rep.Identical() {
		t.Fatalf("replay diverged: %d mismatches, first: %v", rep.MismatchCount(), rep.Mismatches)
	}
	if rep.Steps != 2000 {
		t.Errorf("replayed %d steps, want 2000", rep.Steps)
	}
	if rep.RowsCompared != 200 {
		t.Errorf("compared %d rows, want 200", rep.RowsCompared)
	}
	if rep.FiddlesApplied == 0 {
		t.Error("no fiddle ops replayed; Fig 11 pins two inlet emergencies")
	}
}

// TestOnlineRecordShardedRejected pins the single-shard restriction.
func TestOnlineRecordShardedRejected(t *testing.T) {
	_, err := online.Run(online.Config{Duration: 10 * time.Second, Shards: 2, Record: t.TempDir()})
	if err == nil {
		t.Fatal("sharded run accepted Config.Record")
	}
}

// TestOnlineRecordUtilStamps pins the lockstep stamp of every captured
// utilization record on a 16-machine batched room at full parallelism:
// monitord's report s is applied after s-1 solver steps, so its UTL
// record must carry tick s-1 exactly. solverd counts a report only
// after recording it, so the harness cannot advance the clock (and the
// solver step) between the apply and the stamp.
func TestOnlineRecordUtilStamps(t *testing.T) {
	if testing.Short() {
		t.Skip("five 600s 16-machine runs; skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	for run := 0; run < 5; run++ {
		res, err := online.Run(online.Config{
			Machines: 16,
			Seed:     int64(run + 1),
			Duration: 600 * time.Second,
			Script:   online.Fig11Script,
			Batch:    true,
			Record:   t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		log, err := recordlog.ReadLog(res.RecordPath)
		if err != nil {
			t.Fatal(err)
		}
		utils := 0
		for _, in := range log.Inputs {
			u := in.Util
			if u == nil {
				continue
			}
			utils++
			if u.Seq == 0 || in.Tick != uint64(u.Seq)-1 || u.Tick != in.Tick {
				t.Fatalf("run %d: %s report %d stamped tick %d, want %d", run, u.Machine, u.Seq, in.Tick, u.Seq-1)
			}
		}
		if utils != 16*600 {
			t.Fatalf("run %d: captured %d util records, want %d", run, utils, 16*600)
		}
	}
}
