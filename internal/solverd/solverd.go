// Package solverd wraps a solver in Mercury's UDP protocol: it accepts
// utilization updates from monitord instances, serves emulated sensor
// reads to the sensor library, and applies fiddle operations — the
// on-line mode of Figure 2 where "the applications or system software
// can query the solver for temperatures".
package solverd

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/surrogate"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/wire"
)

// Stats counts the daemon's traffic and stepping progress; all fields
// are updated atomically and safe to read while serving.
type Stats struct {
	UtilUpdates  atomic.Uint64
	SensorReads  atomic.Uint64
	FiddleOps    atomic.Uint64
	ListRequests atomic.Uint64
	Malformed    atomic.Uint64
	// SolverSteps counts iterations taken by the stepping ticker
	// (StartTicker); direct solver stepping is not included.
	SolverSteps atomic.Uint64
	// MissedTicks counts ticker fires that were coalesced or dropped
	// because a step overran the step interval; each missed tick is
	// made up by a catch-up step, so SolverSteps still tracks elapsed
	// clock time.
	MissedTicks atomic.Uint64
	// UtilBatches counts batched utilization datagrams; the individual
	// machine reports inside them are counted in UtilUpdates.
	UtilBatches atomic.Uint64
	// BoundaryOut / BoundaryIn count boundary exchange datagrams sent
	// to and staged from peer regions (sharded runs only).
	BoundaryOut atomic.Uint64
	BoundaryIn  atomic.Uint64
	// BoundaryMissed counts barrier waits abandoned at the deadline;
	// any nonzero value means the run lost lockstep bit-identity.
	BoundaryMissed atomic.Uint64
}

// Server is a running solver daemon.
type Server struct {
	sol    *solver.Solver
	conn   *net.UDPConn
	clk    clock.Clock
	stats  Stats
	stepFn func() // test seam; defaults to sol.Step
	tracer *causal.Tracer

	// Telemetry (nil unless WithTelemetry). fillFn is sol.ReadAllTemps
	// hoisted into a field once so the sampling path allocates nothing.
	reg         *telemetry.Registry
	events      *telemetry.EventLog
	temps       *telemetry.TempTable
	fillFn      func([]float64) int
	sampleEvery uint64
	tempCap     int

	// Boundary exchange with peer regions (nil unless SetPeers);
	// exportBuf is scratch for ExportBoundary, touched only by the
	// stepping ticker.
	peers     *boundaryState
	exportBuf []float64

	// Surrogate fast path (nil unless WithSurrogate). stepMu serializes
	// whole solver ticks (step + trajectory record) against what-if
	// kernel fallbacks: solver.WhatIf rewinds state but is not atomic
	// with respect to stepping, so a tick landing mid-round-trip would
	// step hypothetical physics and corrupt the recorded trajectory.
	surro  *surrogate.Model
	stepMu sync.Mutex

	// Flight recorder (nil unless WithRecorder).
	rec Recorder

	// Alert engine (nil unless WithAlerts; a nil engine is a no-op on
	// every call, so the tick hook needs no guard).
	alerts *alert.Engine

	mu      sync.Mutex
	lastSeq map[string]uint32

	// upd is the decode target of every standalone utilization update,
	// reused across datagrams; only the Serve goroutine touches it.
	upd wire.UtilUpdate

	stopTick chan struct{}
	tickWG   sync.WaitGroup
	tickOnce sync.Once
}

// Option configures a Server at Listen time.
type Option func(*Server)

// WithClock makes the stepping ticker run on clk instead of the real
// clock; virtual clocks give deterministic warp-speed online runs.
func WithClock(clk clock.Clock) Option {
	return func(s *Server) { s.clk = clk }
}

// WithTelemetry attaches a metrics registry and event log. The
// daemon's traffic counters are exported as read-at-scrape funcs over
// the existing atomics (zero extra cost on the datagram path), node
// temperatures are sampled into a ring table off the stepping ticker,
// and fiddle applications and missed ticks are logged as events.
// Either argument may be nil to skip that half.
func WithTelemetry(reg *telemetry.Registry, events *telemetry.EventLog) Option {
	return func(s *Server) { s.reg = reg; s.events = events }
}

// WithTracer attaches a causal tracer: utilization updates carrying a
// trace context get an apply span parented to the originating sample,
// traced sensor reads get a serve span (and their reply echoes the
// context), and every ticker step gets its own step span. With no
// tracer the datagram and stepping paths are untouched.
func WithTracer(t *causal.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithSurrogate attaches a fitted (or fitting) surrogate model over
// the same solver: the stepping ticker records a trajectory sample
// after every step, State grows a fit-quality section, the surrogate's
// counters join the metrics registry, and Server.WhatIf serves
// queries. The caller owns the model's fitting cadence (StartAutoFit)
// and shutdown.
func WithSurrogate(m *surrogate.Model) Option {
	return func(s *Server) { s.surro = m }
}

// Recorder is the flight-recorder surface solverd drives when one is
// attached (WithRecorder): run metadata and probe identity at Listen,
// every applied utilization update and fiddle op stamped with the
// solver tick they influence, boundary imports on sharded runs, and
// sampled temperature rows. *recordlog.Writer implements it; the
// indirection keeps solverd free of the recordlog dependency. All
// methods must be non-blocking and allocation-free (the recorder
// drops, never back-pressures).
type Recorder interface {
	RecordMeta(step time.Duration, machines int)
	SetProbes(probes []telemetry.TempProbe)
	RecordTempRow(at time.Duration, vals []float64)
	RecordUtil(tick uint64, machine string, seq uint32, entries []wire.UtilEntry)
	RecordFiddle(tick uint64, op *wire.FiddleOp)
	RecordBoundary(tick uint64, region int, idx []int32, temps []float64)
}

// WithRecorder attaches a durable flight recorder: the daemon records
// run metadata, applied util updates and fiddle ops (with their solver
// tick, making the file replayable by mercury-replay), boundary
// imports, and — when telemetry is on — probe identity and sampled
// temperature rows.
func WithRecorder(rec Recorder) Option {
	return func(s *Server) { s.rec = rec }
}

// WithAlerts attaches a compiled alert engine: the stepping ticker
// evaluates it in lockstep after every solver step (EvalTick(n) at
// virtual time n×step), and State grows thresholds and alert
// sections. The caller builds the engine (rules, probes, surrogate
// ETA hookup) and owns its exposure (/alerts, recorder sink).
func WithAlerts(eng *alert.Engine) Option {
	return func(s *Server) { s.alerts = eng }
}

// WithTempSampling tunes the temperature table: capacity samples
// retained per node, one sample every everySteps solver steps.
// Defaults are 360 and 10 (an hour of history at a one-second step).
func WithTempSampling(capacity, everySteps int) Option {
	return func(s *Server) {
		if capacity > 0 {
			s.tempCap = capacity
		}
		if everySteps > 0 {
			s.sampleEvery = uint64(everySteps)
		}
	}
}

// Listen binds a UDP socket (addr like "127.0.0.1:8367"; port 0 picks
// a free port) and returns a Server ready to Serve.
func Listen(addr string, sol *solver.Solver, opts ...Option) (*Server, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("solverd: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("solverd: %w", err)
	}
	s := &Server{
		sol:         sol,
		conn:        conn,
		clk:         clock.Real{},
		lastSeq:     map[string]uint32{},
		stopTick:    make(chan struct{}),
		sampleEvery: 10,
	}
	s.stepFn = sol.Step
	for _, o := range opts {
		o(s)
	}
	if s.reg != nil {
		s.registerMetrics()
	}
	if s.rec != nil {
		s.rec.RecordMeta(sol.StepSize(), len(sol.Machines()))
		if s.temps != nil {
			s.rec.SetProbes(s.temps.Probes())
			s.temps.SetSink(s.rec.RecordTempRow)
		}
	}
	return s, nil
}

// registerMetrics exports the daemon's counters and builds the
// temperature table.
func (s *Server) registerMetrics() {
	r := s.reg
	cf := func(name, help string, v *atomic.Uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	cf("mercury_solver_steps_total", "solver iterations taken by the stepping ticker", &s.stats.SolverSteps)
	cf("mercury_solver_missed_ticks_total", "ticker fires made up after step overrun", &s.stats.MissedTicks)
	cf("mercury_solver_util_updates_total", "utilization update datagrams applied", &s.stats.UtilUpdates)
	cf("mercury_solver_sensor_reads_total", "sensor read requests served", &s.stats.SensorReads)
	cf("mercury_solver_fiddle_ops_total", "fiddle operations received", &s.stats.FiddleOps)
	cf("mercury_solver_list_requests_total", "list requests served", &s.stats.ListRequests)
	cf("mercury_solver_malformed_total", "malformed or unknown datagrams", &s.stats.Malformed)
	cf("mercury_solver_util_batches_total", "batched utilization datagrams applied", &s.stats.UtilBatches)
	cf("mercury_solver_boundary_out_total", "boundary exchange datagrams sent to peer regions", &s.stats.BoundaryOut)
	cf("mercury_solver_boundary_in_total", "boundary exchange datagrams staged from peer regions", &s.stats.BoundaryIn)
	cf("mercury_solver_boundary_missed_total", "boundary barrier waits abandoned at the deadline", &s.stats.BoundaryMissed)
	r.GaugeFunc("mercury_solver_energy_joules_total", "cluster-wide cumulative energy drawn",
		func() float64 { return float64(s.sol.TotalEnergy()) })
	if s.surro != nil {
		sf := func(name, help string, fn func() uint64) {
			r.CounterFunc(name, help, func() float64 { return float64(fn()) })
		}
		sf("mercury_surrogate_samples_total", "trajectory samples recorded for the surrogate", s.surro.SamplesTotal)
		sf("mercury_surrogate_fits_total", "surrogate model fits completed", s.surro.FitsTotal)
		sf("mercury_surrogate_queries_total", "surrogate what-if predictions attempted", s.surro.QueriesTotal)
		sf("mercury_surrogate_declines_total", "surrogate predictions declined as invalid", s.surro.DeclinesTotal)
		sf("mercury_surrogate_kernel_fallbacks_total", "declined what-ifs answered by the kernel", s.surro.KernelFallbacksTotal)
	}

	machines, nodes := s.sol.Probes()
	probes := make([]telemetry.TempProbe, len(machines))
	for i := range machines {
		probes[i] = telemetry.TempProbe{Machine: machines[i], Node: nodes[i]}
	}
	s.temps = telemetry.NewTempTable(probes, s.tempCap)
	s.fillFn = s.sol.ReadAllTemps
}

// Temps returns the daemon's temperature table (nil without
// telemetry).
func (s *Server) Temps() *telemetry.TempTable { return s.temps }

// Addr returns the daemon's bound address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Stats exposes the daemon's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Solver returns the wrapped solver (for co-located stepping loops).
func (s *Server) Solver() *solver.Solver { return s.sol }

// Surrogate returns the attached surrogate model (nil without
// WithSurrogate).
func (s *Server) Surrogate() *surrogate.Model { return s.surro }

// Alerts returns the attached alert engine (nil without WithAlerts; a
// nil engine is safe to call).
func (s *Server) Alerts() *alert.Engine { return s.alerts }

// WhatIf answers a steady-state query from the surrogate in
// microseconds; when the surrogate declines and the caller allows it,
// the real kernel answers instead, serialized against the stepping
// ticker so the snapshot/step/rewind round trip never interleaves with
// a live tick. This is the handler behind the control plane's POST
// /whatif.
func (s *Server) WhatIf(q *surrogate.Query, fallback bool) (*surrogate.Answer, error) {
	if s.surro == nil {
		return nil, fmt.Errorf("solverd: no surrogate attached")
	}
	ans, err := s.surro.WhatIf(q, false)
	if err != nil || ans.Valid || !fallback {
		return ans, err
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.surro.WhatIf(q, true)
}

// StartTicker advances the solver in clock time, one Step every
// solver step interval, until Close. Offline/experiment use drives the
// solver directly instead.
//
// The ticker keeps emulated time locked to the clock even when a step
// overruns the interval: time.Ticker silently coalesces fires under
// load, so each fire compares the steps taken so far against the
// elapsed clock time and catches up on any deficit, counting the
// made-up fires in Stats.MissedTicks. The ticker is registered
// synchronously, so a virtual-clock caller may Advance as soon as
// StartTicker returns.
func (s *Server) StartTicker() {
	step := s.sol.StepSize()
	start := s.clk.Now()
	t := s.clk.NewTicker(step)
	s.tickWG.Add(1)
	go func() {
		defer s.tickWG.Done()
		defer t.Stop()
		for {
			select {
			case <-t.C():
				expected := int64(s.clk.Now().Sub(start) / step)
				taken := 0
				for int64(s.stats.SolverSteps.Load()) < expected {
					// Lockstep barrier: stepping tick T needs every
					// peer's tick T-1 boundary exhausts (the model's
					// one-tick transport delay). Tick 1 steps from the
					// shared initial temperatures, so nothing to wait
					// for.
					if next := s.stats.SolverSteps.Load() + 1; s.peers != nil && next >= 2 {
						if !s.awaitBoundary(next - 1) {
							return
						}
					}
					var begin time.Duration
					if s.tracer != nil {
						begin = s.tracer.Now()
					}
					s.stepMu.Lock()
					s.stepFn()
					if s.surro != nil {
						s.surro.Record()
					}
					s.stepMu.Unlock()
					n := s.stats.SolverSteps.Add(1)
					if s.peers != nil {
						s.publishBoundary(n)
					}
					if s.tracer != nil {
						s.tracer.Emit(causal.Span{
							Trace: s.tracer.NewTrace("solver-step"),
							Kind:  causal.KindStep,
							Begin: begin,
							End:   s.tracer.Now(),
							Step:  n,
						})
					}
					if s.temps != nil && n%s.sampleEvery == 0 {
						s.temps.Sample(time.Duration(n)*step, s.fillFn)
					}
					s.alerts.EvalTick(n)
					taken++
				}
				if taken > 1 {
					s.stats.MissedTicks.Add(uint64(taken - 1))
					if s.events != nil {
						s.events.Emit(telemetry.EvMissedTicks, "", "", float64(taken-1), "")
					}
				}
			case <-s.stopTick:
				return
			}
		}
	}()
}

// Serve processes datagrams until Close. It returns nil after a clean
// Close.
func (s *Server) Serve() error {
	buf := make([]byte, 2048)
	for {
		n, peer, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("solverd: %w", err)
		}
		s.handle(buf[:n], peer)
	}
}

// Close shuts the daemon down: the ticker stops and Serve returns.
func (s *Server) Close() error {
	s.tickOnce.Do(func() { close(s.stopTick) })
	s.closeBoundary()
	s.tickWG.Wait()
	return s.conn.Close()
}

// LastSeq returns the highest utilization-update sequence number seen
// from a machine's monitord (0 if none).
func (s *Server) LastSeq(machine string) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq[machine]
}

func (s *Server) handle(buf []byte, peer netip.AddrPort) {
	typ, err := wire.Type(buf)
	if err != nil {
		s.stats.Malformed.Add(1)
		return
	}
	switch typ {
	case wire.MsgUtilUpdate:
		s.handleUtil(buf)
	case wire.MsgSensorRead:
		s.reply(peer, s.handleSensor(buf))
	case wire.MsgFiddleOp:
		s.reply(peer, s.handleFiddle(buf))
	case wire.MsgListNodes:
		s.reply(peer, s.handleList(buf))
	case wire.MsgUtilBatch:
		s.handleUtilBatch(buf)
	case wire.MsgBoundaryExchange:
		s.handleBoundary(buf)
	default:
		s.stats.Malformed.Add(1)
	}
}

func (s *Server) reply(peer netip.AddrPort, buf []byte) {
	if buf == nil {
		return
	}
	// Replies are best-effort; UDP clients time out and retry.
	_, _ = s.conn.WriteToUDPAddrPort(buf, peer)
}

func (s *Server) handleUtil(buf []byte) {
	u := &s.upd
	if err := wire.DecodeUtilUpdate(buf, u); err != nil {
		s.stats.Malformed.Add(1)
		return
	}
	s.applyUtil(u.Machine, u.Seq, u.Entries, u.Trace)
}

// applyUtil installs one machine's utilization report — the shared path
// behind standalone updates and batched reports, so both get identical
// dedupe, counting and tracing.
//
// UtilUpdates is bumped last, after the recorder and the apply span
// have read SolverSteps: a lockstep harness that waits on the counter
// and then advances the clock can no longer step the solver between
// the apply and its stamps.
func (s *Server) applyUtil(machine string, seq uint32, entries []wire.UtilEntry, tc wire.TraceContext) {
	s.mu.Lock()
	last, seen := s.lastSeq[machine]
	// Drop stale reordered datagrams, but accept wraparound restarts.
	stale := seen && seq <= last && last-seq < 1<<30
	if !stale {
		s.lastSeq[machine] = seq
	}
	s.mu.Unlock()
	if stale {
		return
	}
	var begin time.Duration
	if s.tracer != nil {
		begin = s.tracer.Now()
	}
	for _, e := range entries {
		// Unknown machines/sources are counted but otherwise ignored:
		// monitord may legitimately report streams the model does not
		// use (e.g. network utilization on a machine with no NIC node).
		if err := s.sol.SetUtilization(machine, e.Source, e.Util); err != nil {
			s.stats.Malformed.Add(1)
		}
	}
	if s.rec != nil {
		// Stamped with the current tick: the update influences step
		// tick+1, which is when replay re-applies it.
		s.rec.RecordUtil(s.stats.SolverSteps.Load(), machine, seq, entries)
	}
	if s.tracer != nil && tc.Trace != 0 {
		s.tracer.Emit(causal.Span{
			Trace:   tc.Trace,
			Parent:  tc.Span,
			Kind:    causal.KindUtilApply,
			Begin:   begin,
			End:     s.tracer.Now(),
			Machine: machine,
			Step:    s.stats.SolverSteps.Load(),
		})
	}
	s.stats.UtilUpdates.Add(1)
}

func (s *Server) handleSensor(buf []byte) []byte {
	req, err := wire.UnmarshalSensorRead(buf)
	if err != nil {
		s.stats.Malformed.Add(1)
		return nil
	}
	s.stats.SensorReads.Add(1)
	var begin time.Duration
	if s.tracer != nil {
		begin = s.tracer.Now()
	}
	// Echo the request's trace context so the exchange stays
	// attributable at the client.
	rep := &wire.SensorReply{Status: wire.StatusOK, Trace: req.Trace}
	temp, err := s.sol.Temperature(req.Machine, req.Node)
	if err != nil {
		rep.Status = wire.StatusUnknown
		rep.Message = err.Error()
	} else {
		rep.Temp = temp
	}
	if s.tracer != nil && req.Trace.Trace != 0 {
		s.tracer.Emit(causal.Span{
			Trace:   req.Trace.Trace,
			Parent:  req.Trace.Span,
			Kind:    causal.KindSensorServe,
			Begin:   begin,
			End:     s.tracer.Now(),
			Machine: req.Machine,
			Node:    req.Node,
			Value:   float64(rep.Temp),
			Step:    s.stats.SolverSteps.Load(),
		})
	}
	out, err := wire.MarshalSensorReply(rep)
	if err != nil {
		return nil
	}
	return out
}

// ApplyFiddle applies one fiddle operation through the same counting
// and event-logging path as the UDP handler; the HTTP control plane's
// POST /fiddle routes here so both entry points behave identically.
func (s *Server) ApplyFiddle(op *wire.FiddleOp) error {
	s.stats.FiddleOps.Add(1)
	if err := fiddle.Apply(s.sol, op); err != nil {
		return err
	}
	if s.rec != nil {
		s.rec.RecordFiddle(s.stats.SolverSteps.Load(), op)
	}
	if s.events != nil {
		// Source setpoints are global, so sharded runs broadcast them
		// to every region; only region 0 logs the event, keeping the
		// shared event log identical to a single-solver run.
		if op.Op == wire.OpSetSourceTemp {
			if idx, total := s.sol.Region(); total > 0 && idx != 0 {
				return nil
			}
		}
		machine := ""
		if len(op.Strings) > 0 {
			machine = op.Strings[0]
		}
		value := 0.0
		if len(op.Floats) > 0 {
			value = op.Floats[0]
		}
		s.events.Emit(telemetry.EvFiddle, machine, "", value, fiddleDetail(op))
	}
	return nil
}

// fiddleDetail renders an op for the event log, e.g.
// "pin-inlet(machine1)". Shared with mercury-replay so replayed
// events are byte-identical.
func fiddleDetail(op *wire.FiddleOp) string {
	return wire.FiddleEventDetail(op)
}

func (s *Server) handleFiddle(buf []byte) []byte {
	op, err := wire.UnmarshalFiddleOp(buf)
	if err != nil {
		s.stats.Malformed.Add(1)
		return nil
	}
	rep := &wire.FiddleReply{Status: wire.StatusOK}
	if err := s.ApplyFiddle(op); err != nil {
		var unk *solver.ErrUnknown
		if errors.As(err, &unk) {
			rep.Status = wire.StatusUnknown
		} else {
			rep.Status = wire.StatusBadOp
		}
		rep.Message = err.Error()
	}
	out, err := wire.MarshalFiddleReply(rep)
	if err != nil {
		return nil
	}
	return out
}

// StateSnapshot is the daemon's /state document.
type StateSnapshot struct {
	Steps       uint64 `json:"steps"`
	MissedTicks uint64 `json:"missed_ticks"`
	UtilUpdates uint64 `json:"util_updates"`
	SensorReads uint64 `json:"sensor_reads"`
	FiddleOps   uint64 `json:"fiddle_ops"`
	Malformed   uint64 `json:"malformed"`

	// Region/Regions label this daemon's shard of a partitioned
	// cluster; Regions is 0 for an unpartitioned run.
	Region  int `json:"region"`
	Regions int `json:"regions,omitempty"`
	// Boundary exchange counters (sharded runs only).
	UtilBatches    uint64 `json:"util_batches,omitempty"`
	BoundaryOut    uint64 `json:"boundary_out,omitempty"`
	BoundaryIn     uint64 `json:"boundary_in,omitempty"`
	BoundaryMissed uint64 `json:"boundary_missed,omitempty"`

	// Machines maps machine name to its node temperatures (Celsius).
	Machines map[string]map[string]float64 `json:"machines"`
	// Temps summarizes the sampled temperature rings (telemetry only).
	Temps []telemetry.TempSummary `json:"temps,omitempty"`
	// Surrogate reports fit quality of the fast what-if model, when one
	// is attached.
	Surrogate *surrogate.FitStats `json:"surrogate,omitempty"`
	// Thresholds lists the freon Low/High/RedLine lines per watched
	// probe, and Alerts the engine snapshot (alerting only).
	Thresholds []alert.Probe   `json:"thresholds,omitempty"`
	Alerts     *alert.Snapshot `json:"alerts,omitempty"`
}

// State builds a point-in-time snapshot for the control plane. It
// takes the solver lock once per machine and is meant for on-demand
// serving, not hot loops.
func (s *Server) State() StateSnapshot {
	snap := StateSnapshot{
		Steps:       s.stats.SolverSteps.Load(),
		MissedTicks: s.stats.MissedTicks.Load(),
		UtilUpdates: s.stats.UtilUpdates.Load(),
		SensorReads: s.stats.SensorReads.Load(),
		FiddleOps:   s.stats.FiddleOps.Load(),
		Malformed:   s.stats.Malformed.Load(),
		Machines:    map[string]map[string]float64{},
	}
	snap.Region, snap.Regions = s.sol.Region()
	snap.UtilBatches = s.stats.UtilBatches.Load()
	snap.BoundaryOut = s.stats.BoundaryOut.Load()
	snap.BoundaryIn = s.stats.BoundaryIn.Load()
	snap.BoundaryMissed = s.stats.BoundaryMissed.Load()
	for m, temps := range s.sol.Snapshot() {
		mt := make(map[string]float64, len(temps))
		for n, t := range temps {
			mt[n] = float64(t)
		}
		snap.Machines[m] = mt
	}
	if s.temps != nil {
		snap.Temps = s.temps.Summaries()
	}
	if s.surro != nil {
		st := s.surro.Stats()
		snap.Surrogate = &st
	}
	if s.alerts != nil {
		snap.Thresholds = s.alerts.Probes()
		st := s.alerts.State()
		snap.Alerts = &st
	}
	return snap
}

func (s *Server) handleList(buf []byte) []byte {
	req, err := wire.UnmarshalListNodes(buf)
	if err != nil {
		s.stats.Malformed.Add(1)
		return nil
	}
	s.stats.ListRequests.Add(1)
	rep := &wire.ListReply{Status: wire.StatusOK}
	if req.Machine == "" {
		rep.Names = s.sol.Machines()
	} else {
		names, err := s.sol.Nodes(req.Machine)
		if err != nil {
			rep.Status = wire.StatusUnknown
		} else {
			rep.Names = names
		}
	}
	out, err := wire.MarshalListReply(rep)
	if err != nil {
		// Too many nodes for one datagram; report as a bad op.
		out, err = wire.MarshalListReply(&wire.ListReply{Status: wire.StatusBadOp})
		if err != nil {
			return nil
		}
	}
	return out
}
