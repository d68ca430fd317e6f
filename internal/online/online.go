// Package online boots Mercury's full daemon stack — solverd, one
// monitord per machine, and Freon's tempd/admd — over loopback UDP on
// a shared virtual clock, and drives it in deterministic lockstep at
// warp speed. It is the end-to-end counterpart of experiments.Sim:
// the same per-second ordering (fiddle, cluster tick, utilization
// updates, solver step, Freon poll, Freon period), but with every
// interaction crossing the wire the way a live deployment's would.
//
// The lockstep schedule staggers the daemons' tickers by sub-second
// phase offsets so each advance wakes exactly one layer:
//
//	t = k+0.0   monitord sampling tickers fire (registered at 0)
//	t = k+0.25  solverd's stepping ticker fires (registered at 0.25)
//	t = k+0.5   Freon's base ticker fires (registered at 0.5),
//	            and the harness runs second k's cluster work
//
// Between advances the harness waits on the daemons' atomic counters,
// so two runs with the same seed produce bit-identical trajectories.
package online

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/ctl"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/monitord"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/webcluster"
	"github.com/darklab/mercury/internal/wire"
	"github.com/darklab/mercury/internal/workload"
)

// Fig11Script is the Section 5 emergency: at 480 s machine1's inlet
// rises to 38.6 C and machine3's to 35.6 C for the rest of the run.
const Fig11Script = `#!/bin/bash
sleep 480
fiddle machine1 temperature inlet 38.6
fiddle machine3 temperature inlet 35.6
`

// Config parameterizes an online run.
type Config struct {
	// Machines in the cluster; default 4, the paper's rig.
	Machines int
	// Seed for the workload trace; default 1, the Section 5 seed.
	Seed int64
	// Duration of emulated time; default 2000s, the Figure 11 span.
	Duration time.Duration
	// SampleEvery is the temperature sampling period; default 10s,
	// matching the experiment harness's series.
	SampleEvery time.Duration
	// Script is a fiddle script scheduling emergencies (e.g.
	// Fig11Script); empty means no emergency.
	Script string
	// Freon configures the thermal policy; the zero value is the
	// paper's defaults.
	Freon freon.Config
	// CtlAddr, when non-empty, serves the run's control plane there
	// ("127.0.0.1:0" picks a free port; see Result.CtlAddr). The run's
	// metrics, event log, solver state, and fiddle path are all
	// reachable over HTTP while the lockstep loop executes, without
	// perturbing determinism — the control plane only reads.
	CtlAddr string
	// Trace turns on causal tracing: one tracer shared by every
	// daemon, stamped from the virtual clock, so the span set is
	// bit-identical across runs (Result.Spans, and /spans on the
	// control plane). Off by default — the hot paths then carry no
	// tracing cost beyond a nil check.
	Trace bool
	// Shards partitions the cluster by region across this many
	// cooperating solverd daemons, each stepping only its machines and
	// exchanging boundary exhausts over loopback UDP in lockstep.
	// Utilization updates, sensor reads, and machine-targeted fiddle
	// ops are routed to the owning shard; source setpoints are
	// broadcast to every shard. A sharded run is bit-identical to the
	// single-daemon run — temperatures, events, and canonical spans.
	// Default (0 or 1) is the classic single solverd.
	Shards int
	// Workers is each solver's worker-pool size (solver.Config.Workers;
	// 0 = one worker per core, capped by machine count).
	Workers int
	// Batch groups each shard's machines into MsgUtilBatch datagrams —
	// one batched monitord per shard in place of one daemon per machine
	// (~16x fewer datagrams). Temperatures and events are unchanged;
	// the span SHAPE differs from per-machine monitords (one sample
	// span per shard instead of per machine), so the trace goldens pin
	// the default unbatched path.
	Batch bool
	// Surrogate attaches a what-if surrogate to the solver daemon:
	// the stepping ticker records the run's trajectory (a passive,
	// allocation-free observation that cannot change temperatures,
	// events, or spans — the goldens pin this), and Result.Surrogate
	// reports its counters. Single-shard runs only: a shard sees just
	// its region's inputs, so a local fit cannot answer room-wide
	// questions.
	Surrogate bool
	// Alerts, when non-nil, attaches the deterministic alerting/SLO
	// engine (internal/alert) to the run: the harness evaluates the
	// rule set once per emulated second, right after the solver step,
	// over the full cluster's post-step temperatures — identically for
	// single-daemon and sharded runs. Transitions land in the shared
	// event log and in Result.Alerts; when CtlAddr is set they stream
	// at /alerts; when Record is set they persist as ALT records.
	// alert.Defaults() is the paper-tuned rule set.
	Alerts []alert.Rule
	// Record, when non-empty, is a directory receiving a durable
	// binary flight-recorder capture of the run
	// (<Record>/online.mrl): every event, span, sampled temperature
	// row, applied utilization update, and fiddle op, replayable at
	// warp speed by cmd/mercury-replay (see docs/recordlog.md).
	// Single-shard runs only. Result.RecordPath reports the file.
	Record string
	// RecordMaxBytes rotates the capture into numbered segments
	// (online.mrl, online.1.mrl, …) once a segment exceeds this many
	// bytes; recordlog.ReadLog stitches them back together. 0 keeps
	// one unbounded file.
	RecordMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration <= 0 {
		c.Duration = 2000 * time.Second
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 10 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Sample is one temperature observation: CPU temperatures per machine,
// in machine order, taken after the step for second Sec completed.
type Sample struct {
	Sec   int
	Temps []units.Celsius
}

// Result summarizes an online run with the same headline metrics the
// offline Figure 11 experiment reports.
type Result struct {
	Machines []string
	Samples  []Sample
	Totals   webcluster.Totals
	// MaxCPUTemp is the per-machine maximum over Samples.
	MaxCPUTemp map[string]units.Celsius
	// Adjustments counts admd weight adjustments per machine.
	Adjustments map[string]int
	// ServersShutDown counts red-line shutdowns (0 in Figure 11).
	ServersShutDown int

	// Daemon-side counters, for sanity checks. In sharded runs
	// SolverSteps is shard 0's count (every shard steps in lockstep);
	// the traffic counters are summed across shards.
	SolverSteps uint64
	MissedTicks uint64
	UtilUpdates uint64
	SensorReads uint64
	FreonPolls  uint64
	FreonPeriod uint64
	// UtilBatches counts batched utilization datagrams (Config.Batch),
	// BoundaryExchanges the boundary datagrams staged between shards.
	UtilBatches       uint64
	BoundaryExchanges uint64

	// Events is the run's thermal event log, oldest first. Stamped
	// from the shared virtual clock, it is bit-identical across runs
	// with the same configuration (the Figure 11 golden test pins it).
	Events []telemetry.Event
	// Spans is the run's causal-span set in canonical order (nil
	// unless Config.Trace). Like Events it is bit-identical across
	// runs — the Figure 11 trace golden pins it.
	Spans []causal.Span
	// Surrogate reports the what-if surrogate's counters (nil unless
	// Config.Surrogate).
	Surrogate *surrogate.FitStats
	// Alerts is the alert-transition timeline, oldest first (nil
	// unless Config.Alerts). Stamped on exact tick boundaries of the
	// virtual clock, it is bit-identical across runs, shard counts,
	// and record/replay (the Figure 11 alerts golden pins it).
	Alerts []telemetry.Event
	// RecordPath is the flight-recorder file written when
	// Config.Record is set; RecordDrops counts records lost to a full
	// recorder ring (0 on a healthy capture).
	RecordPath  string
	RecordDrops uint64
	// CtlAddr is the control plane's bound address ("" when disabled).
	CtlAddr string
}

// Run boots the stack, drives it for cfg.Duration of virtual time, and
// tears it down.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	clk := clock.NewVirtual()

	// Shared observability: one registry and one event log for the
	// whole stack, stamped from the virtual clock so the log is
	// deterministic.
	reg := telemetry.NewRegistry()
	events := telemetry.NewEventLog(8192, clk)
	var tracer *causal.Tracer
	if cfg.Trace {
		// Sized so a full 2000 s Figure 11 run — about nine spans per
		// emulated second plus the emergency traffic — fits without the
		// ring dropping anything.
		tracer = causal.NewTracer(1<<15, clk)
	}

	// Durable capture: the writer is created before the clock first
	// advances, so its header epoch is virtual t=0 and every stamp in
	// the file lines up with the event log and tracer.
	var rec *recordlog.Writer
	if cfg.Record != "" {
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("online: Record requires a single shard, got %d", cfg.Shards)
		}
		if err := os.MkdirAll(cfg.Record, 0o755); err != nil {
			return nil, fmt.Errorf("online: record dir: %w", err)
		}
		w, err := recordlog.Create(filepath.Join(cfg.Record, "online.mrl"), "online", clk,
			recordlog.WithMaxBytes(cfg.RecordMaxBytes))
		if err != nil {
			return nil, fmt.Errorf("online: record: %w", err)
		}
		rec = w
		defer rec.Close()
		events.SetSink(rec.RecordEvent)
		tracer.SetSink(rec.RecordSpan)
	}

	// Thermal model + solvers behind the UDP daemons: one solverd owns
	// the whole room, or cfg.Shards of them each own one region of it.
	// Every shard compiles the full cluster, so global machine indices
	// and initial temperatures agree across daemons.
	cm, err := model.DefaultCluster("room", cfg.Machines)
	if err != nil {
		return nil, err
	}
	var regions [][]string
	if cfg.Shards > 1 {
		if cfg.Surrogate {
			return nil, fmt.Errorf("online: Surrogate requires a single shard, got %d", cfg.Shards)
		}
		if regions, err = solver.PartitionRegions(cm, cfg.Shards); err != nil {
			return nil, err
		}
	}
	var surro *surrogate.Model
	servers := make([]*solverd.Server, cfg.Shards)
	for i := range servers {
		sol, err := solver.New(cm, solver.Config{
			Workers:     cfg.Workers,
			Regions:     regions,
			RegionIndex: i,
		})
		if err != nil {
			return nil, err
		}
		// One registry: metric names are unique per registry, so only
		// shard 0 exports solver metrics. The event log and tracer are
		// shared — their records are keyed by content, not by daemon.
		solverOpts := []solverd.Option{solverd.WithClock(clk)}
		if i == 0 {
			solverOpts = append(solverOpts, solverd.WithTelemetry(reg, events))
		} else {
			solverOpts = append(solverOpts, solverd.WithTelemetry(nil, events))
		}
		if tracer != nil {
			solverOpts = append(solverOpts, solverd.WithTracer(tracer))
		}
		if cfg.Surrogate && i == 0 {
			if surro, err = surrogate.New(sol, surrogate.Config{}); err != nil {
				return nil, err
			}
			solverOpts = append(solverOpts, solverd.WithSurrogate(surro))
		}
		if rec != nil && i == 0 {
			solverOpts = append(solverOpts, solverd.WithRecorder(rec))
		}
		if servers[i], err = solverd.Listen("127.0.0.1:0", sol, solverOpts...); err != nil {
			return nil, err
		}
		defer servers[i].Close()
	}
	if cfg.Shards > 1 {
		addrs := make(map[int]string, cfg.Shards)
		for i, s := range servers {
			addrs[i] = s.Addr().String()
		}
		for _, s := range servers {
			if err := s.SetPeers(addrs); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range servers {
		go s.Serve()
	}
	srv := servers[0]

	// ownerOf routes a machine to the shard that steps it; with one
	// shard everything routes to it.
	ownerOf := func(machine string) (*solverd.Server, error) {
		if cfg.Shards == 1 {
			return srv, nil
		}
		r, err := srv.Solver().MachineRegion(machine)
		if err != nil {
			return nil, err
		}
		return servers[r], nil
	}

	// applyFiddle routes a fiddle op like the UDP path does: source
	// setpoints are global state every shard must apply; everything
	// else targets one machine and goes to its owner.
	applyFiddle := func(op *wire.FiddleOp) error {
		if op.Op == wire.OpSetSourceTemp || len(op.Strings) == 0 {
			for _, s := range servers {
				if err := s.ApplyFiddle(op); err != nil {
					return err
				}
			}
			return nil
		}
		s, err := ownerOf(op.Strings[0])
		if err != nil {
			return err
		}
		return s.ApplyFiddle(op)
	}

	// Cluster machine names, in the canonical cluster order everything
	// below indexes by.
	names := make([]string, cfg.Machines)
	for i := range names {
		names[i] = fmt.Sprintf("machine%d", i+1)
	}

	// Effective Freon component table; the alert engine derives each
	// probe's Low/High/RedLine from it, and the Freon section below
	// monitors exactly these components.
	comps := cfg.Freon.Components
	if comps == nil {
		comps = freon.DefaultComponents()
	}

	// Alerting: one engine for the whole room, driven from the harness
	// goroutine after every solver step, never from the daemons — the
	// evaluation order (and so the transition timeline) is then the
	// same no matter how many shards step the model.
	var eng *alert.Engine
	if cfg.Alerts != nil {
		probes, fill := alertProbes(servers, names, comps)
		acfg := alert.Config{
			Rules:  cfg.Alerts,
			Step:   time.Second,
			Probes: probes,
			Fill:   fill,
			Health: func() (uint64, uint64, uint64) {
				var missed, boundary, drops uint64
				for _, s := range servers {
					missed += s.Stats().MissedTicks.Load()
					boundary += s.Stats().BoundaryMissed.Load()
				}
				if rec != nil {
					drops = rec.Drops()
				}
				return missed, boundary, drops
			},
			Events:   events,
			Registry: reg,
			Clock:    clk,
		}
		if surro != nil {
			acfg.Residual = func() (float64, float64, bool) {
				st := surro.Stats()
				return st.MaxResidualC, surro.ResidualTolerance(), st.FitGeneration > 0
			}
			acfg.ETA = surro.TimeToThreshold
		}
		if eng, err = alert.New(acfg); err != nil {
			return nil, fmt.Errorf("online: alerts: %w", err)
		}
		if rec != nil {
			eng.Transitions().SetSink(rec.RecordAlert)
		}
	}

	ctlAddr := ""
	if cfg.CtlAddr != "" {
		ctlOpts := []ctl.Option{
			ctl.WithRegistry(reg),
			ctl.WithEvents(events),
			ctl.WithState(func() any { return srv.State() }),
			ctl.WithFiddle(applyFiddle),
		}
		if tracer != nil {
			ctlOpts = append(ctlOpts, ctl.WithTracer(tracer))
		}
		if eng != nil {
			ctlOpts = append(ctlOpts, ctl.WithAlerts(func() any { return eng.State() }, eng.Transitions()))
		}
		cs := ctl.New(ctlOpts...)
		ctlAddr, err = cs.Start(cfg.CtlAddr)
		if err != nil {
			return nil, err
		}
		defer cs.Close()
	}

	// Emulated web cluster and workload, exactly as experiments.NewSim
	// builds them.
	bal := lvs.New()
	wc, err := webcluster.New(bal, names, webcluster.Config{})
	if err != nil {
		return nil, err
	}
	// The request trace streams one second at a time into one reused
	// batch; the arrivals are GenerateWeb's, draw for draw.
	peak := float64(cfg.Machines) * 0.7 / webcluster.Config{}.MeanCPUPerRequest(0.3)
	reqs := workload.NewWebStream(workload.WebConfig{
		Duration: cfg.Duration,
		PeakRPS:  peak,
		Seed:     cfg.Seed,
	})
	var batch []workload.Request

	var ops []fiddle.TimedOp
	if cfg.Script != "" {
		script, err := fiddle.ParseScript(cfg.Script)
		if err != nil {
			return nil, err
		}
		ops = script.Schedule()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// shardNames[i] is the machines shard i owns (everything, for a
	// single shard), in cluster order — the per-shard utilization
	// arithmetic below counts against these.
	shardNames := [][]string{names}
	if cfg.Shards > 1 {
		shardNames = regions
	}

	// Monitords, each sampling a synthetic procfs that the harness
	// refreshes from the cluster's per-tick utilizations: one daemon
	// per machine reporting to the machine's owner shard, or — with
	// Batch — one daemon per shard reporting all its machines in one
	// MsgUtilBatch datagram.
	synths := make(map[string]*procfs.Synthetic, cfg.Machines)
	for _, m := range names {
		synths[m] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	}
	var mons []*monitord.Daemon
	defer func() {
		for _, d := range mons {
			d.Close()
		}
	}()
	startMonitord := func(mc monitord.Config) error {
		mc.Interval = time.Second
		mc.Clock = clk
		mc.Tracer = tracer
		d, err := monitord.New(mc)
		if err != nil {
			return err
		}
		mons = append(mons, d)
		ready := make(chan struct{})
		go d.RunReady(ctx, ready)
		<-ready
		return nil
	}
	if cfg.Batch {
		for i, s := range servers {
			batch := make([]monitord.BatchMachine, len(shardNames[i]))
			for j, m := range shardNames[i] {
				batch[j] = monitord.BatchMachine{Machine: m, Sampler: synths[m]}
			}
			if err := startMonitord(monitord.Config{
				Machine:    fmt.Sprintf("shard%d", i),
				Batch:      batch,
				SolverAddr: s.Addr().String(),
			}); err != nil {
				return nil, err
			}
		}
	} else {
		for _, m := range names {
			owner, err := ownerOf(m)
			if err != nil {
				return nil, err
			}
			if err := startMonitord(monitord.Config{
				Machine:    m,
				Sampler:    synths[m],
				SolverAddr: owner.Addr().String(),
			}); err != nil {
				return nil, err
			}
		}
	}

	// Phase 0.25: every shard's stepping ticker. They all fire on the
	// same virtual instant; the boundary barrier (solverd.SetPeers)
	// sequences their data exchange within the instant.
	clk.Advance(250 * time.Millisecond)
	for _, s := range servers {
		s.StartTicker()
	}
	clk.Advance(250 * time.Millisecond)

	// Phase 0.5: Freon, reading temperatures through the emulated
	// sensor library (one UDP round trip per read, as on live
	// hardware) and actuating the balancer locally, as admd does on
	// the LVS machine.
	sens := udpSensors{sensors: map[string]map[string]*sensor.Sensor{}}
	nodes := map[string]bool{model.NodeCPU: true}
	for _, comp := range comps {
		nodes[comp.Node] = true
	}
	for _, m := range names {
		owner, err := ownerOf(m)
		if err != nil {
			return nil, err
		}
		sens.sensors[m] = map[string]*sensor.Sensor{}
		for node := range nodes {
			s, err := sensor.OpenOptions(owner.Addr().String(), m, node, sensor.Options{Clock: clk})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			s.SetTracer(tracer)
			sens.sensors[m][node] = s
		}
	}
	// One fiddle client per shard; ops route like the server-side
	// applyFiddle above (owner for machine ops, broadcast for sources).
	fcs := make([]*fiddle.Client, cfg.Shards)
	for i, s := range servers {
		if fcs[i], err = fiddle.DialClock(s.Addr().String(), 0, 0, clk); err != nil {
			return nil, err
		}
		defer fcs[i].Close()
	}
	routeOp := func(op *wire.FiddleOp) error {
		if op.Op == wire.OpSetSourceTemp || len(op.Strings) == 0 {
			for _, c := range fcs {
				if err := c.Apply(op); err != nil {
					return err
				}
			}
			return nil
		}
		if cfg.Shards == 1 {
			return fcs[0].Apply(op)
		}
		r, err := srv.Solver().MachineRegion(op.Strings[0])
		if err != nil {
			return err
		}
		return fcs[r].Apply(op)
	}
	cfg.Freon.Events = events
	cfg.Freon.Tracer = tracer
	fr, err := freon.New(names, sens, bal, power{wc: wc, apply: routeOp}, cfg.Freon)
	if err != nil {
		return nil, err
	}
	runner := freon.NewRunner(fr, clk)
	runner.RegisterMetrics(reg)
	runnerReady := make(chan struct{})
	runnerDone := make(chan error, 1)
	go func() { runnerDone <- runner.RunReady(ctx, runnerReady) }()
	<-runnerReady

	pollSecs := int(fr.Config().ConnPoll / time.Second)
	periodSecs := int(fr.Config().Period / time.Second)
	sampleSecs := int(cfg.SampleEvery / time.Second)
	secs := int(cfg.Duration / time.Second)

	res := &Result{Machines: names, MaxCPUTemp: map[string]units.Celsius{}, Adjustments: map[string]int{}}
	opIdx := 0
	for sec := 0; sec < secs; sec++ {
		// The harness's work for second sec happens at t = sec+0.5,
		// before any daemon has observed the second.
		now := time.Duration(sec) * time.Second
		for opIdx < len(ops) && ops[opIdx].At <= now {
			if err := routeOp(ops[opIdx].Op); err != nil {
				return nil, fmt.Errorf("online: fiddle at %v: %w", now, err)
			}
			opIdx++
		}
		batch = reqs.AppendUntil(batch[:0], now+time.Second)
		tick := wc.TickSecond(batch)
		for _, m := range names {
			st := tick.PerServer[m]
			synths[m].Set(model.UtilCPU, st.CPUUtil)
			synths[m].Set(model.UtilDisk, st.DiskUtil)
		}

		// t -> sec+1.0: monitord reports the second's utilizations —
		// every shard must have applied its own machines' reports.
		clk.Advance(500 * time.Millisecond)
		if err := waitFor(sec, "utilization updates", runnerDone, func() bool {
			for i, s := range servers {
				if s.Stats().UtilUpdates.Load() < uint64(len(shardNames[i])*(sec+1)) {
					return false
				}
			}
			return true
		}); err != nil {
			return nil, err
		}

		// t -> sec+1.25: every shard consumes them and steps in
		// lockstep (the boundary barrier holds back any shard whose
		// peers' previous-tick exhausts are still in flight).
		clk.Advance(250 * time.Millisecond)
		wantSteps := uint64(sec + 1)
		if err := waitFor(sec, "solver step", runnerDone, func() bool {
			for _, s := range servers {
				if s.Stats().SolverSteps.Load() < wantSteps {
					return false
				}
			}
			return true
		}); err != nil {
			return nil, err
		}

		// Still at t = sec+1.25, with every shard stepped and Freon not
		// yet woken: the alert engine evaluates tick sec+1 over the
		// post-step temperatures, stamping transitions at exactly
		// (sec+1)s. Predictive rules therefore see — and can fire on —
		// the same temperatures Freon is about to react to.
		eng.EvalTick(uint64(sec + 1))

		// t -> sec+1.5: Freon observes the post-step temperatures.
		clk.Advance(250 * time.Millisecond)
		wantPolls := uint64((sec + 1) / pollSecs)
		wantPeriods := uint64((sec + 1) / periodSecs)
		if err := waitFor(sec, "freon ticks", runnerDone, func() bool {
			return runner.Polls() >= wantPolls && runner.Periods() >= wantPeriods
		}); err != nil {
			return nil, err
		}

		if (sec+1)%sampleSecs == 0 {
			sample := Sample{Sec: sec, Temps: make([]units.Celsius, len(names))}
			for i, m := range names {
				temp, err := sens.Temperature(m, model.NodeCPU)
				if err != nil {
					return nil, err
				}
				sample.Temps[i] = temp
				if temp > res.MaxCPUTemp[m] {
					res.MaxCPUTemp[m] = temp
				}
			}
			res.Samples = append(res.Samples, sample)
		}
	}

	cancel()
	<-runnerDone

	res.Totals = wc.Totals()
	for _, m := range names {
		res.Adjustments[m] = fr.Admd().Adjustments(m)
	}
	res.ServersShutDown = fr.OfflineCount()
	res.SolverSteps = srv.Stats().SolverSteps.Load()
	for _, s := range servers {
		res.MissedTicks += s.Stats().MissedTicks.Load()
		res.UtilUpdates += s.Stats().UtilUpdates.Load()
		res.SensorReads += s.Stats().SensorReads.Load()
		res.UtilBatches += s.Stats().UtilBatches.Load()
		res.BoundaryExchanges += s.Stats().BoundaryIn.Load()
	}
	res.FreonPolls = runner.Polls()
	res.FreonPeriod = runner.Periods()
	res.Events = events.Since(0)
	if tracer != nil {
		res.Spans = tracer.Canonical()
	}
	if surro != nil {
		st := surro.Stats()
		res.Surrogate = &st
	}
	if eng != nil {
		res.Alerts = eng.Timeline()
	}
	if rec != nil {
		// All emitters are quiescent (runner drained, no further clock
		// advances), so Close flushes a complete capture.
		if err := rec.Close(); err != nil {
			return nil, fmt.Errorf("online: flight recorder: %w", err)
		}
		res.RecordPath = rec.Path()
		res.RecordDrops = rec.Drops()
	}
	res.CtlAddr = ctlAddr
	return res, nil
}

// alertProbes builds the canonical full-cluster probe list — machines
// in cluster order, each machine's nodes in its compiled node order,
// thresholds resolved from the Freon component table — plus an
// allocation-free Fill that scatters every shard's ReadAllTemps into
// that order. With one shard the solver's own Probes order already is
// canonical, so Fill is ReadAllTemps itself; with several, each shard
// reports only its owned region and the columns are stitched back
// into cluster order, so the engine sees byte-identical input either
// way.
func alertProbes(servers []*solverd.Server, names []string, comps []freon.ComponentSpec) ([]alert.Probe, func([]float64) int) {
	thr := map[string]freon.Thresholds{}
	for _, c := range comps {
		thr[c.Node] = c.Thresholds
	}
	mk := func(machine, node string) alert.Probe {
		t := thr[node]
		return alert.Probe{
			Machine: machine, Node: node,
			Low: float64(t.Low), High: float64(t.High), RedLine: float64(t.RedLine),
		}
	}
	if len(servers) == 1 {
		sol := servers[0].Solver()
		ms, ns := sol.Probes()
		probes := make([]alert.Probe, len(ms))
		for i := range ms {
			probes[i] = mk(ms[i], ns[i])
		}
		return probes, sol.ReadAllTemps
	}
	type col struct{ shard, idx int }
	var probes []alert.Probe
	var srcs []col
	scratch := make([][]float64, len(servers))
	shardMs := make([][]string, len(servers))
	shardNs := make([][]string, len(servers))
	for s, srv := range servers {
		shardMs[s], shardNs[s] = srv.Solver().Probes()
		scratch[s] = make([]float64, len(shardMs[s]))
	}
	for _, m := range names {
		for s := range servers {
			for i, pm := range shardMs[s] {
				if pm != m {
					continue
				}
				probes = append(probes, mk(m, shardNs[s][i]))
				srcs = append(srcs, col{shard: s, idx: i})
			}
		}
	}
	fill := func(dst []float64) int {
		for s := range servers {
			servers[s].Solver().ReadAllTemps(scratch[s])
		}
		n := len(srcs)
		if n > len(dst) {
			n = len(dst)
		}
		for i := 0; i < n; i++ {
			dst[i] = scratch[srcs[i].shard][srcs[i].idx]
		}
		return n
	}
	return probes, fill
}

// waitFor yields until cond holds: a short Gosched burst for the
// common case where the daemons finish within microseconds, then
// escalating sleeps so a single-core scheduler is not saturated by
// the spin. The runner's error channel is checked so a failed Freon
// tick surfaces instead of hanging, and a generous real-time guard
// turns a broken schedule into an error.
func waitFor(sec int, what string, runnerDone <-chan error, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	backoff := time.Microsecond
	for i := 0; !cond(); i++ {
		select {
		case err := <-runnerDone:
			return fmt.Errorf("online: freon runner exited during second %d: %w", sec, err)
		default:
		}
		if i < 64 {
			runtime.Gosched()
			continue
		}
		time.Sleep(backoff)
		if backoff < 128*time.Microsecond {
			backoff *= 2
		} else if time.Now().After(deadline) {
			return fmt.Errorf("online: timed out waiting for %s at emulated second %d", what, sec)
		}
	}
	return nil
}

// udpSensors adapts per-(machine, node) sensor clients to
// freon.Sensors: every Temperature call is a UDP round trip.
type udpSensors struct {
	sensors map[string]map[string]*sensor.Sensor
}

func (u udpSensors) Temperature(machine, node string) (units.Celsius, error) {
	s := u.sensors[machine][node]
	if s == nil {
		return 0, fmt.Errorf("online: no sensor open for %s/%s", machine, node)
	}
	return s.Read()
}

// TemperatureCtx implements freon.ContextSensors: the trace context
// rides the sensor request so solverd's serving span joins the
// emergency's trace.
func (u udpSensors) TemperatureCtx(tc causal.Context, machine, node string) (units.Celsius, error) {
	s := u.sensors[machine][node]
	if s == nil {
		return 0, fmt.Errorf("online: no sensor open for %s/%s", machine, node)
	}
	return s.ReadCtx(tc)
}

// power switches a machine off in the emulated web cluster directly
// (admd runs beside LVS) and in the thermal model through the fiddle
// protocol, routed to the machine's owner shard.
type power struct {
	wc    *webcluster.Cluster
	apply func(*wire.FiddleOp) error
}

func (p power) SetPower(machine string, on bool) error {
	if err := p.wc.SetPower(machine, on); err != nil {
		return err
	}
	v := 0.0
	if on {
		v = 1
	}
	return p.apply(&wire.FiddleOp{Op: wire.OpSetMachinePower, Strings: []string{machine}, Floats: []float64{v}})
}
