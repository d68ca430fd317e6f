package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/recordlog"
)

// fig11Dur is the Figure 11 run's emulated span, which the golden
// event log covers.
const fig11Dur = 2000 * time.Second

// onlineDur is one online run's emulated span; tests shorten it.
var onlineDur = fig11Dur

// setupRuns is how many 1-emulated-second runs the set-up time is the
// median of.
const setupRuns = 31

// onlineWorkload is one configuration of the full online stack.
type onlineWorkload struct {
	machines int
	// observed turns on every observer layer (causal tracing, alerts,
	// flight recorder, surrogate) and batches utilization datagrams.
	observed bool
}

var onlineWorkloads = map[string]onlineWorkload{
	"fig11-online":    {machines: 4},
	"room16-observed": {machines: 16, observed: true},
}

// config is the workload's online.Config. Observed workloads also
// capture to a flight recorder, in a directory run makes per call.
func (w onlineWorkload) config(seed int64, dur time.Duration) online.Config {
	cfg := online.Config{Machines: w.machines, Seed: seed, Duration: dur, Script: online.Fig11Script}
	if w.observed {
		cfg.Batch = true
		cfg.Trace = true
		cfg.Alerts = alert.Defaults()
		cfg.Surrogate = true
	}
	return cfg
}

// onlineRun is one timed online.Run call.
type onlineRun struct {
	res           *online.Result
	wall          time.Duration
	allocs, bytes float64
	// capture is the flight-recorder file, read back before the
	// capture directory is removed (observed workloads).
	capture      *recordlog.Log
	captureBytes int64
	// replayWall is the time to read the capture back and replay it.
	replayWall time.Duration
}

// run times one online.Run of the workload.
func (w onlineWorkload) run(cfg online.Config) (*onlineRun, error) {
	return runOnce(cfg, w.observed)
}

// runOnce times one online.Run. With capture set the run records into
// a fresh directory, which is read back and removed. The heap is
// collected first so garbage from earlier runs and checks is not
// charged to this one.
func runOnce(cfg online.Config, capture bool) (*onlineRun, error) {
	if capture {
		dir, err := tempDir("rec")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Record = dir
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := online.Run(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	r := &onlineRun{res: res, wall: wall}
	r.allocs, r.bytes = memDelta(&m0, &m1)
	if res.RecordPath != "" {
		start := time.Now()
		if r.capture, err = recordlog.ReadLog(res.RecordPath); err != nil {
			return nil, fmt.Errorf("reading capture: %w", err)
		}
		r.replayWall = time.Since(start)
		fi, err := os.Stat(res.RecordPath)
		if err != nil {
			return nil, err
		}
		r.captureBytes = fi.Size()
	}
	return r, nil
}

// restampLate finds the capture's utilization records that carry the
// known stamp race of solverd.applyUtil and moves them back to the tick
// they were applied at, returning how many it moved.
//
// Under the lockstep harness, monitord numbers its reports 1, 2, ... one
// per emulated second, and report s is applied while the solver has
// taken s-1 steps, so its record must carry tick s-1. applyUtil bumps
// UtilUpdates before it stamps the record with SolverSteps, and the
// harness advances the clock as soon as the last report of a second is
// counted (ROADMAP item 1). That last report can therefore be stamped
// one tick late, and replay would apply it one step late. Only that
// record is moved: a record of any other tick, or a late one that is
// not the last of its second in file order, is an error.
func restampLate(c *recordlog.Log) (int, error) {
	last := map[uint32]int{}
	for i, in := range c.Inputs {
		if in.Util != nil {
			last[in.Util.Seq] = i
		}
	}
	n := 0
	for i := range c.Inputs {
		in := &c.Inputs[i]
		u := in.Util
		if u == nil {
			continue
		}
		want := uint64(u.Seq) - 1
		switch {
		case u.Seq == 0:
			return n, fmt.Errorf("capture: %s util record with sequence number 0", u.Machine)
		case in.Tick == want:
		case in.Tick == want+1 && last[u.Seq] == i:
			in.Tick, u.Tick = want, want
			n++
		default:
			return n, fmt.Errorf("capture: %s util record %d stamped tick %d, want %d", u.Machine, u.Seq, in.Tick, want)
		}
	}
	return n, nil
}

// check compares a run with the reference digest and, when it was
// captured, checks that the capture holds the live run's events and
// alerts and replays bit-identical through recordlog.Replay. The one
// known stamp race (restampLate) is counted in b.lateStamps and
// corrected before the replay; the replay must then be bit-identical.
func (w onlineWorkload) check(b *bench, r *onlineRun, ref onlineDigest) error {
	if bad := digestOnline(r.res).diff(ref); len(bad) > 0 {
		return fmt.Errorf("differs from the reference run in %v", bad)
	}
	if r.capture == nil {
		return nil
	}
	c := r.capture
	if c.Truncated {
		return fmt.Errorf("capture truncated after a clean shutdown")
	}
	if digestEvents(c.Events) != digestEvents(r.res.Events) || digestEvents(c.Alerts) != digestEvents(r.res.Alerts) {
		return fmt.Errorf("captured events or alerts differ from the live run's")
	}
	late, err := restampLate(c)
	if err != nil {
		return err
	}
	if late > 0 {
		b.lateStamps += int64(late)
		fmt.Printf("note: known defect, %d util record(s) stamped one tick late (solverd.applyUtil race, ROADMAP item 1)\n", late)
	}
	cm, err := model.DefaultCluster("room", w.machines)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := recordlog.Replay(c, cm, recordlog.ReplayConfig{})
	r.replayWall += time.Since(start)
	if err != nil {
		return fmt.Errorf("replaying capture: %w", err)
	}
	if !rep.Identical() {
		return fmt.Errorf("capture replay diverged: %d mismatches, first %v", rep.MismatchCount(), rep.Mismatches)
	}
	return nil
}

// health charges the run's missed solver ticks and recorder drops as
// failed operations.
func (b *bench) health(res *online.Result) {
	if n := int64(res.MissedTicks + res.RecordDrops); n > 0 {
		b.failed += n
		fmt.Printf("note: %d missed ticks, %d recorder drops\n", res.MissedTicks, res.RecordDrops)
	}
}

// reference runs the workload once at the bench seed and checks it
// against the in-process simulation (and, for seed 1 of the Figure 11
// rig, against the golden event log). Every later run must match its
// digest bit for bit.
func (w onlineWorkload) reference(b *bench, cfg online.Config) (*onlineRun, onlineDigest, error) {
	ops := int64(cfg.Duration / time.Second)
	b.attempted += ops
	r, err := w.run(cfg)
	if err != nil {
		return nil, onlineDigest{}, fmt.Errorf("reference run: %w", err)
	}
	b.health(r.res)
	if err := checkAgainstSim(r.res, w.machines, cfg.Seed, cfg.Duration); err != nil {
		b.fail(ops, "reference run against Sim: %v", err)
	}
	d := digestOnline(r.res)
	if err := w.check(b, r, d); err != nil {
		b.fail(ops, "reference run: %v", err)
	}
	return r, d, nil
}

// checkFig11Golden runs the paper's Figure 11 (4 machines, seed 1) and
// compares its events with the online package's golden log.
func checkFig11Golden(b *bench) error {
	cfg := onlineWorkloads["fig11-online"].config(1, fig11Dur)
	b.attempted += int64(fig11Dur / time.Second)
	res, err := online.Run(cfg)
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	if err := checkGolden(res); err != nil {
		b.fail(int64(fig11Dur/time.Second), "golden run: %v", err)
	}
	return nil
}

// runOnline measures an online workload end to end: set-up time, then
// back-to-back 2000 emulated-second runs for the time budget.
func runOnline(b *bench) error {
	w := onlineWorkloads[b.workload]
	if b.trace {
		return traceOnline(b, w)
	}

	// Set-up: what a user pays per experiment to boot and tear down
	// the stack, measured as a 1 emulated-second run. The first run
	// warms code and page caches and is not counted.
	var setup []float64
	for i := 0; i <= setupRuns; i++ {
		r, err := w.run(w.config(b.seed, time.Second))
		if err != nil {
			return fmt.Errorf("set-up run: %w", err)
		}
		if i > 0 {
			setup = append(setup, r.wall.Seconds())
		}
	}
	b.set("setup_s", median(setup), "s")

	if !w.observed {
		if err := checkFig11Golden(b); err != nil {
			return err
		}
	}
	_, ref, err := w.reference(b, w.config(b.seed, onlineDur))
	if err != nil {
		return err
	}

	emu := onlineDur.Seconds()
	ops := int64(emu)
	var rates, allocs, bytes []float64
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < b.seconds; i++ {
		b.attempted += ops
		r, err := w.run(w.config(b.seed, onlineDur))
		if err != nil {
			b.fail(ops, "run %d: %v", i, err)
			continue
		}
		b.health(r.res)
		if err := w.check(b, r, ref); err != nil {
			b.fail(ops, "run %d: %v", i, err)
			continue
		}
		rates = append(rates, emu/r.wall.Seconds())
		allocs = append(allocs, r.allocs/emu)
		bytes = append(bytes, r.bytes/emu)
	}
	if len(rates) == 0 {
		return fmt.Errorf("no run passed its output check")
	}
	fmt.Printf("runs %d, emu-s/s %.0f\n", len(rates), rates)
	m := float64(w.machines)
	b.set("emu_s_per_s", median(rates), "emu-s/s")
	b.set("allocs_per_emu_s", median(allocs), "allocs/emu-s")
	b.set("alloc_bytes_per_emu_s", median(bytes), "B/emu-s")
	b.set("machine_steps_per_s", m*median(rates), "steps/s")
	b.set("allocs_per_machine_step", median(allocs)/m, "allocs/step")
	return nil
}
