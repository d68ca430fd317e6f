package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/darklab/mercury/internal/alert"
	"github.com/darklab/mercury/internal/causal"
	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/sensor"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/solverd"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/webcluster"
	"github.com/darklab/mercury/internal/wire"
	"github.com/darklab/mercury/internal/workload"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them on every workload; a layer the workload does not
// run reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"webcluster.tick_us_p50", "us"},
	{"webcluster.tick_us_p99", "us"},
	{"webcluster.ticks", "count"},
	{"webcluster.allocs_per_tick", "allocs"},
	{"workload.generate_ms", "ms"},
	{"procfs.sample_ns", "ns"},
	{"wire.util_encode_ns", "ns"},
	{"wire.util_decode_ns", "ns"},
	{"wire.allocs_per_datagram", "allocs"},
	{"solver.apply_ns", "ns"},
	{"solver.step_us", "us"},
	{"solver.sample_ns", "ns"},
	{"solver.allocs_per_step", "allocs"},
	{"solver.step_share", "ratio"},
	{"trace.parse_mb_per_s", "MB/s"},
	{"trace.write_mb_per_s", "MB/s"},
	{"model.compile_s", "s"},
	{"solver.new_s", "s"},
	{"sensor.read_us_p50", "us"},
	{"sensor.read_us_p99", "us"},
	{"sensor.reads", "count"},
	{"freon.poll_us", "us"},
	{"freon.period_us", "us"},
	{"alert.eval_us", "us"},
	{"recordlog.write_ns", "ns"},
	{"recordlog.bytes_per_emu_s", "B/emu-s"},
	{"recordlog.replay_ms", "ms"},
	{"solverd.util_updates", "1/emu-s"},
	{"solverd.util_batches", "1/emu-s"},
	{"solverd.sensor_reads", "1/emu-s"},
	{"solverd.missed_ticks", "1/emu-s"},
	{"freon.polls", "1/emu-s"},
	{"freon.periods", "1/emu-s"},
	{"alert.transitions", "1/emu-s"},
	{"telemetry.events", "1/emu-s"},
	{"recordlog.drops", "1/emu-s"},
	{"recordlog.late_stamps", "count"},
	{"causal.span_mismatch", "count"},
	{"causal.spans_retained", "count"},
	{"causal.spans_emitted", "count"},
	{"harness.unaccounted_share", "ratio"},
	{"harness.trace_overhead_share", "ratio"},
}

// layer records a per-layer metric under its unit from layerMetrics.
func (b *bench) layer(name string, v float64) {
	for _, m := range layerMetrics {
		if m.name == name {
			b.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: unlisted layer metric " + name)
}

// zeroLayers sets every per-layer metric to 0 before a workload fills
// in the layers it runs.
func (b *bench) zeroLayers() {
	for _, m := range layerMetrics {
		b.set(m.name, 0, m.unit)
	}
}

// writeSpans writes the traced pass's spans under .bench_build.
func writeSpans(b *bench, rec *Recorder) error {
	f, err := os.Create(filepath.Join(filepath.Dir(scratchDir), "spans-"+b.workload+".txt"))
	if err != nil {
		return err
	}
	if _, err := rec.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSensors serves Freon's temperature reads from the solver in
// process, one solver.sample span per read.
type spanSensors struct {
	sol *solver.Solver
	rec *Recorder
}

func (s spanSensors) Temperature(machine, node string) (units.Celsius, error) {
	id := s.rec.Begin("solver.sample")
	t, err := s.sol.Temperature(machine, node)
	s.rec.End(id, 1)
	return t, err
}

// rigPower switches a machine in the web cluster and the thermal model.
type rigPower struct {
	wc  *webcluster.Cluster
	sol *solver.Solver
}

func (p rigPower) SetPower(machine string, on bool) error {
	if err := p.wc.SetPower(machine, on); err != nil {
		return err
	}
	return p.sol.SetMachinePower(machine, on)
}

// layerRun is what one in-process pass over the workload produced.
type layerRun struct {
	samples     [][]units.Celsius
	totals      webcluster.Totals
	adjustments map[string]int
	wall        time.Duration
}

// replayLayers runs the workload's per-second pipeline in process —
// webcluster and lvs, procfs sampling, the utilization wire codec,
// solver apply and step, the alert engine and flight recorder when the
// workload observes, and Freon with in-process sensors — in the order
// online.Run drives it, with a span around every call into a layer. It
// replays the online run's own inputs: the same seeded request trace
// and emergency script. The UDP hops, daemons and lockstep hand-offs
// are left out; they are what harness.unaccounted_share measures.
func replayLayers(w onlineWorkload, seed int64, rec *Recorder) (*layerRun, error) {
	names := make([]string, w.machines)
	for i := range names {
		names[i] = fmt.Sprintf("machine%d", i+1)
	}
	cm, err := model.DefaultCluster("room", w.machines)
	if err != nil {
		return nil, err
	}
	sol, err := solver.New(cm, solver.Config{})
	if err != nil {
		return nil, err
	}
	bal := lvs.New()
	wc, err := webcluster.New(bal, names, webcluster.Config{})
	if err != nil {
		return nil, err
	}
	reqs := workload.GenerateWeb(webConfig(w, seed))
	script, err := fiddle.ParseScript(online.Fig11Script)
	if err != nil {
		return nil, err
	}
	ops := script.Schedule()
	synths := make([]*procfs.Synthetic, w.machines)
	for i := range synths {
		synths[i] = procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	}

	clk := clock.NewVirtual()
	events := telemetry.NewEventLog(8192, clk)
	var eng *alert.Engine
	var rw *recordlog.Writer
	var tc wire.TraceContext
	if w.observed {
		dir, err := tempDir("layers")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if rw, err = recordlog.Create(filepath.Join(dir, "layers.mrl"), "perfbench", clk); err != nil {
			return nil, err
		}
		defer rw.Close() // error paths; the success path checks Close below
		events.SetSink(rw.RecordEvent)
		if eng, err = alert.New(alertConfig(sol, events, clk)); err != nil {
			return nil, err
		}
		eng.Transitions().SetSink(rw.RecordAlert)
		// A traced run's datagrams carry a trace context, which selects
		// the longer version-2 encoding.
		tc = wire.TraceContext{Trace: 1, Span: 1}
	}
	fr, err := freon.New(names, spanSensors{sol: sol, rec: rec}, bal, rigPower{wc: wc, sol: sol}, freon.Config{Events: events})
	if err != nil {
		return nil, err
	}
	pollSecs := int(fr.Config().ConnPoll / time.Second)
	periodSecs := int(fr.Config().Period / time.Second)

	out := &layerRun{adjustments: map[string]int{}}
	utils := make([]map[model.UtilSource]units.Fraction, w.machines)
	sampled := make([]map[model.UtilSource]units.Fraction, w.machines)
	entries := make([][]wire.UtilEntry, w.machines)
	var bufs [][]byte
	reqIdx, opIdx := 0, 0
	start := time.Now()
	for sec := 0; sec < int(onlineDur/time.Second); sec++ {
		now := time.Duration(sec) * time.Second
		for ; opIdx < len(ops) && ops[opIdx].At <= now; opIdx++ {
			if err := fiddle.Apply(sol, ops[opIdx].Op); err != nil {
				return nil, err
			}
		}
		first := reqIdx
		for reqIdx < len(reqs) && reqs[reqIdx].At < now+time.Second {
			reqIdx++
		}

		id := rec.Begin("webcluster")
		wc.TickSecond(reqs[first:reqIdx])
		for i, m := range names {
			if utils[i], err = wc.Utilizations(m); err != nil {
				return nil, err
			}
		}
		rec.End(id, 1)

		id = rec.Begin("procfs")
		for i, s := range synths {
			for src, u := range utils[i] {
				s.Set(src, u)
			}
			if sampled[i], err = s.Sample(); err != nil {
				return nil, err
			}
		}
		rec.End(id, w.machines)

		seq := uint32(sec + 1)
		for i := range names {
			entries[i] = entries[i][:0]
			for src, u := range sampled[i] {
				entries[i] = append(entries[i], wire.UtilEntry{Source: src, Util: u})
			}
		}
		if bufs, err = encodeUtils(rec, names, seq, entries, w.observed, tc); err != nil {
			return nil, err
		}
		reports, err := decodeUtils(rec, bufs, w.observed)
		if err != nil {
			return nil, err
		}

		id = rec.Begin("solver.apply")
		n := 0
		for _, r := range reports {
			for _, e := range r.Entries {
				if err := sol.SetUtilization(r.Machine, e.Source, e.Util); err != nil {
					return nil, err
				}
				n++
			}
		}
		rec.End(id, n)

		if rw != nil {
			id = rec.Begin("recordlog")
			for _, r := range reports {
				rw.RecordUtil(uint64(sec), r.Machine, r.Seq, r.Entries)
			}
			rec.End(id, len(reports))
		}

		id = rec.Begin("solver.step")
		sol.Step()
		rec.End(id, 1)
		clk.Advance(time.Second)

		if eng != nil {
			id = rec.Begin("alert")
			eng.EvalTick(uint64(sec + 1))
			rec.End(id, 1)
		}
		if (sec+1)%pollSecs == 0 {
			id = rec.Begin("freon.poll")
			err := fr.TickPoll()
			rec.End(id, 1)
			if err != nil {
				return nil, err
			}
		}
		if (sec+1)%periodSecs == 0 {
			id = rec.Begin("freon.period")
			err := fr.TickPeriod()
			rec.End(id, 1)
			if err != nil {
				return nil, err
			}
		}
		if (sec+1)%10 == 0 {
			row := make([]units.Celsius, len(names))
			for i, m := range names {
				if row[i], err = (spanSensors{sol: sol, rec: rec}).Temperature(m, model.NodeCPU); err != nil {
					return nil, err
				}
			}
			out.samples = append(out.samples, row)
		}
	}
	out.wall = time.Since(start)
	if rw != nil {
		if err := rw.Close(); err != nil {
			return nil, fmt.Errorf("layer pass capture: %w", err)
		}
	}
	out.totals = wc.Totals()
	for _, m := range names {
		out.adjustments[m] = fr.Admd().Adjustments(m)
	}
	return out, nil
}

// webConfig is the request trace online.Run generates for the workload.
func webConfig(w onlineWorkload, seed int64) workload.WebConfig {
	return workload.WebConfig{
		Duration: onlineDur,
		PeakRPS:  float64(w.machines) * 0.7 / webcluster.Config{}.MeanCPUPerRequest(0.3),
		Seed:     seed,
	}
}

// alertConfig is the default rule set over every probe of sol, with
// thresholds from Freon's default component table, as online.Run
// builds it for one shard (without the surrogate's residual and ETA).
func alertConfig(sol *solver.Solver, events *telemetry.EventLog, clk clock.Clock) alert.Config {
	thr := map[string]freon.Thresholds{}
	for _, c := range freon.DefaultComponents() {
		thr[c.Node] = c.Thresholds
	}
	ms, ns := sol.Probes()
	probes := make([]alert.Probe, len(ms))
	for i := range ms {
		t := thr[ns[i]]
		probes[i] = alert.Probe{Machine: ms[i], Node: ns[i], Low: float64(t.Low), High: float64(t.High), RedLine: float64(t.RedLine)}
	}
	return alert.Config{
		Rules:  alert.Defaults(),
		Step:   time.Second,
		Probes: probes,
		Fill:   sol.ReadAllTemps,
		Health: func() (uint64, uint64, uint64) { return 0, 0, 0 },
		Events: events,
		Clock:  clk,
	}
}

// encodeUtils encodes one second's reports the way the workload's
// monitord does: one UtilUpdate per machine, or MsgUtilBatch datagrams
// of at most wire.MaxBatchMachines machines.
func encodeUtils(rec *Recorder, names []string, seq uint32, entries [][]wire.UtilEntry, batch bool, tc wire.TraceContext) ([][]byte, error) {
	var bufs [][]byte
	if !batch {
		id := rec.Begin("wire.encode")
		for i, m := range names {
			buf, err := wire.MarshalUtilUpdate(&wire.UtilUpdate{Machine: m, Seq: seq, Entries: entries[i], Trace: tc})
			if err != nil {
				return nil, err
			}
			bufs = append(bufs, buf)
		}
		rec.End(id, len(bufs))
		return bufs, nil
	}
	reports := make([]wire.UtilReport, len(names))
	for i, m := range names {
		reports[i] = wire.UtilReport{Machine: m, Seq: seq, Entries: entries[i]}
	}
	id := rec.Begin("wire.encode")
	for off := 0; off < len(reports); off += wire.MaxBatchMachines {
		end := min(off+wire.MaxBatchMachines, len(reports))
		buf, err := wire.MarshalUtilBatch(&wire.UtilBatch{Reports: reports[off:end], Trace: tc})
		if err != nil {
			return nil, err
		}
		bufs = append(bufs, buf)
	}
	rec.End(id, len(bufs))
	return bufs, nil
}

// decodeUtils decodes datagrams from encodeUtils back into reports.
func decodeUtils(rec *Recorder, bufs [][]byte, batch bool) ([]wire.UtilReport, error) {
	var reports []wire.UtilReport
	id := rec.Begin("wire.decode")
	for _, buf := range bufs {
		if batch {
			b, err := wire.UnmarshalUtilBatch(buf)
			if err != nil {
				return nil, err
			}
			reports = append(reports, b.Reports...)
			continue
		}
		u, err := wire.UnmarshalUtilUpdate(buf)
		if err != nil {
			return nil, err
		}
		reports = append(reports, wire.UtilReport{Machine: u.Machine, Seq: u.Seq, Entries: u.Entries})
	}
	rec.End(id, len(bufs))
	return reports, nil
}

// checkLayerRun compares an in-process pass with the online reference:
// the same tolerance, totals and adjustments as the Sim check.
func checkLayerRun(lr *layerRun, ref *online.Result) error {
	if len(lr.samples) != len(ref.Samples) {
		return fmt.Errorf("layer pass took %d samples, online %d", len(lr.samples), len(ref.Samples))
	}
	for i, s := range ref.Samples {
		for j, t := range s.Temps {
			if d := math.Abs(float64(t - lr.samples[i][j])); d > simTolerance {
				return fmt.Errorf("layer pass sample %d machine %d: %.4f, online %.4f", s.Sec, j, lr.samples[i][j], t)
			}
		}
	}
	if lr.totals != ref.Totals {
		return fmt.Errorf("layer pass totals %+v, online %+v", lr.totals, ref.Totals)
	}
	for m, n := range ref.Adjustments {
		if lr.adjustments[m] != n {
			return fmt.Errorf("layer pass %s adjustments %d, online %d", m, lr.adjustments[m], n)
		}
	}
	return nil
}

// sensorReads times closed-loop sensor reads over loopback UDP against
// a solver daemon serving the workload's cluster: one client, the next
// read sent when the previous reply arrives.
func sensorReads(machines, n int) ([]float64, error) {
	sol, _, _, err := newSolver(machines, 0)
	if err != nil {
		return nil, err
	}
	srv, err := solverd.Listen("127.0.0.1:0", sol)
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-served
	}()
	s, err := sensor.Open(srv.Addr().String(), "machine1", model.NodeCPU)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	lat := make([]float64, 0, n)
	for i := 0; i < n+n/10; i++ {
		start := time.Now()
		if _, err := s.Read(); err != nil {
			return nil, err
		}
		if i >= n/10 { // the first tenth warms the path
			lat = append(lat, time.Since(start).Seconds())
		}
	}
	return lat, nil
}

// spanMismatch counts spans of got that have no equal span in ref.
func spanMismatch(got, ref []causal.Span) int {
	left := map[causal.Span]int{}
	for _, s := range ref {
		left[s]++
	}
	n := 0
	for _, s := range got {
		if left[s] > 0 {
			left[s]--
		} else {
			n++
		}
	}
	return n
}

// sensorSamples is the closed-loop read count: enough for a p99 with
// ten samples beyond it twice over.
const sensorSamples = 2000

// programRuns is how many online.Run calls a traced run makes after the
// reference, for the end-to-end wall time and the program's counters.
const programRuns = 3

// traceOnline is the traced run of an online workload.
func traceOnline(b *bench, w onlineWorkload) error {
	b.zeroLayers()
	emu := onlineDur.Seconds()
	ops := int64(emu)

	// The program itself, untraced by the benchmark: end-to-end wall
	// time per emulated second and the counters online.Result exposes.
	cfg := w.config(b.seed, onlineDur)
	ref, refDigest, err := w.reference(b, cfg)
	if err != nil {
		return err
	}
	walls := []float64{ref.wall.Seconds()}
	var mismatch []float64
	for i := 0; i < programRuns; i++ {
		b.attempted += ops
		r, err := w.run(cfg)
		if err != nil {
			b.fail(ops, "program run %d: %v", i, err)
			continue
		}
		b.health(r.res)
		if err := w.check(b, r, refDigest); err != nil {
			b.fail(ops, "program run %d: %v", i, err)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		if w.observed {
			mismatch = append(mismatch, float64(spanMismatch(r.res.Spans, ref.res.Spans)))
		}
	}
	wall := median(walls)
	res := ref.res
	b.layer("solverd.util_updates", float64(res.UtilUpdates)/emu)
	b.layer("solverd.util_batches", float64(res.UtilBatches)/emu)
	b.layer("solverd.sensor_reads", float64(res.SensorReads)/emu)
	b.layer("solverd.missed_ticks", float64(res.MissedTicks)/emu)
	b.layer("freon.polls", float64(res.FreonPolls)/emu)
	b.layer("freon.periods", float64(res.FreonPeriod)/emu)
	b.layer("alert.transitions", float64(len(res.Alerts))/emu)
	b.layer("telemetry.events", float64(len(res.Events))/emu)
	b.layer("recordlog.drops", float64(res.RecordDrops)/emu)
	if w.observed {
		b.layer("recordlog.bytes_per_emu_s", float64(ref.captureBytes)/emu)
		b.layer("recordlog.replay_ms", ref.replayWall.Seconds()*1e3)
		if len(mismatch) > 0 {
			b.layer("causal.span_mismatch", median(mismatch))
		}
		b.layer("causal.spans_retained", float64(len(res.Spans)))
		b.layer("causal.spans_emitted", float64(len(ref.capture.Spans)))
	} else {
		// Figure 11 runs with tracing off; count its span defects on two
		// extra traced and captured runs of the same rig. Tracing is
		// passive, so they must still match the reference digest.
		tcfg := cfg
		tcfg.Trace = true
		var traced []*onlineRun
		for i := 0; i < 2; i++ {
			b.attempted += ops
			r, err := runOnce(tcfg, true)
			if err != nil {
				return err
			}
			b.health(r.res)
			if err := w.check(b, r, refDigest); err != nil {
				b.fail(ops, "traced program run %d: %v", i, err)
			}
			traced = append(traced, r)
		}
		a, c := traced[0], traced[1]
		b.layer("causal.span_mismatch", float64(spanMismatch(c.res.Spans, a.res.Spans)))
		b.layer("causal.spans_retained", float64(len(c.res.Spans)))
		b.layer("causal.spans_emitted", float64(len(c.capture.Spans)))
	}
	b.layer("recordlog.late_stamps", float64(b.lateStamps))

	// The layers, driven in process over the same inputs: plain and
	// traced passes alternated, so their difference is the tracing
	// overhead, then an allocation-counting pass.
	var rec *Recorder
	var plainWalls, tracedWalls []float64
	for i := 0; i < 4; i++ {
		var r *Recorder
		if i%2 == 1 {
			r = NewRecorder(1 << 16)
			rec = r
		}
		runtime.GC()
		lr, err := replayLayers(w, b.seed, r)
		if err != nil {
			return err
		}
		b.attempted += ops
		if err := checkLayerRun(lr, res); err != nil {
			b.fail(ops, "layer pass %d: %v", i, err)
		}
		if r == nil {
			plainWalls = append(plainWalls, lr.wall.Seconds())
		} else {
			tracedWalls = append(tracedWalls, lr.wall.Seconds())
		}
	}
	counting := NewCountingRecorder(1 << 16)
	if _, err := replayLayers(w, b.seed, counting); err != nil {
		return err
	}
	if err := writeSpans(b, rec); err != nil {
		return err
	}
	lt := SelfTimes(rec.Spans())
	la := SelfTimes(counting.Spans())
	get := func(m map[string]*LayerTime, name string) LayerTime {
		if l := m[name]; l != nil {
			return *l
		}
		return LayerTime{}
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	tick := get(lt, "webcluster")
	p50, err := percentile(tick.Durs, 50)
	if err != nil {
		return err
	}
	p99, err := percentile(tick.Durs, 99)
	if err != nil {
		return err
	}
	b.layer("webcluster.tick_us_p50", p50*1e6)
	b.layer("webcluster.tick_us_p99", p99*1e6)
	b.layer("webcluster.ticks", float64(tick.Calls))
	b.layer("webcluster.allocs_per_tick", float64(get(la, "webcluster").Allocs)/float64(tick.Calls))
	b.layer("procfs.sample_ns", float64(get(lt, "procfs").PerOp()))
	enc, dec := get(lt, "wire.encode"), get(lt, "wire.decode")
	b.layer("wire.util_encode_ns", float64(enc.PerOp()))
	b.layer("wire.util_decode_ns", float64(dec.PerOp()))
	b.layer("wire.allocs_per_datagram", float64(get(la, "wire.encode").Allocs+get(la, "wire.decode").Allocs)/float64(enc.Ops))
	b.layer("solver.apply_ns", float64(get(lt, "solver.apply").PerOp()))
	step := get(lt, "solver.step")
	b.layer("solver.step_us", median(step.Durs)*1e6)
	b.layer("solver.sample_ns", float64(get(lt, "solver.sample").PerOp()))
	b.layer("solver.allocs_per_step", float64(get(la, "solver.step").Allocs)/float64(step.Calls))
	b.layer("solver.step_share", step.Self.Seconds()/wall)
	b.layer("freon.poll_us", us(get(lt, "freon.poll").PerCall()))
	b.layer("freon.period_us", us(get(lt, "freon.period").PerCall()))
	if w.observed {
		b.layer("alert.eval_us", us(get(lt, "alert").PerCall()))
		b.layer("recordlog.write_ns", float64(get(lt, "recordlog").PerOp()))
	}
	var self time.Duration
	for _, l := range lt {
		self += l.Self
	}
	b.layer("harness.unaccounted_share", 1-self.Seconds()/wall)
	b.layer("harness.trace_overhead_share", median(tracedWalls)/median(plainWalls)-1)

	// Set-up layers and the UDP sensor path, timed on their own.
	var gen, compile, build []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		workload.GenerateWeb(webConfig(w, b.seed))
		gen = append(gen, time.Since(start).Seconds())
		_, c, n, err := newSolver(w.machines, 0)
		if err != nil {
			return err
		}
		compile = append(compile, c.Seconds())
		build = append(build, n.Seconds())
	}
	b.layer("workload.generate_ms", median(gen)*1e3)
	b.layer("model.compile_s", median(compile))
	b.layer("solver.new_s", median(build))
	lat, err := sensorReads(w.machines, sensorSamples)
	if err != nil {
		return err
	}
	if p50, err = percentile(lat, 50); err != nil {
		return err
	}
	if p99, err = percentile(lat, 99); err != nil {
		return err
	}
	b.layer("sensor.read_us_p50", p50*1e6)
	b.layer("sensor.read_us_p99", p99*1e6)
	b.layer("sensor.reads", float64(len(lat)))
	fmt.Printf("paper §2.3: solver iteration ~100 us (here %.1f us for %d machines), readsensor ~300 us (here p50 %.1f us)\n",
		median(step.Durs)*1e6, w.machines, p50*1e6)
	return nil
}
