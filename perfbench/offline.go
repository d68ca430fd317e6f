package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/trace"
)

// The offline-replay workload: a seeded utilization trace for a large
// room, replayed as mercury-solver -trace does at cluster scale.
const (
	offlineDur         = 300 * time.Second
	offlineCPUEvery    = 10 * time.Second
	offlineDiskStride  = 4 // every 4th machine also traces its disk
	offlineSampleEvery = 60 * time.Second
	offlineSetupRuns   = 5
)

// offlineMachines is the replayed room's size; tests shrink it.
var offlineMachines = 10000

// canary is a small fixed replay whose log digest was recorded when the
// benchmark was written. The kernel's temperatures must stay
// bit-identical, so any change to it is an output error.
var canary = struct {
	seed     int64
	machines int
	dur      time.Duration
	digest   string
}{seed: 1, machines: 64, dur: 600 * time.Second, digest: "ad158022"}

// genTrace writes a trace in the text format trace.ReadTrace parses:
// every machine's CPU every offlineCPUEvery, plus the disk of every
// offlineDiskStride-th machine, with utilizations drawn from seed.
func genTrace(seed int64, machines int, dur time.Duration) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for at := time.Duration(0); at <= dur; at += offlineCPUEvery {
		secs := strconv.FormatFloat(at.Seconds(), 'g', -1, 64)
		for m := 1; m <= machines; m++ {
			name := "machine" + strconv.Itoa(m)
			for _, src := range []model.UtilSource{model.UtilCPU, model.UtilDisk} {
				if src == model.UtilDisk && m%offlineDiskStride != 0 {
					continue
				}
				b = append(b, secs...)
				b = append(b, ' ')
				b = append(b, name...)
				b = append(b, ' ')
				b = append(b, src...)
				b = append(b, ' ')
				b = strconv.AppendFloat(b, math.Round(rng.Float64()*1000)/1000, 'g', -1, 64)
				b = append(b, '\n')
			}
		}
	}
	return b
}

func cpuProbes(machines int) []trace.Probe {
	p := make([]trace.Probe, machines)
	for i := range p {
		p[i] = trace.Probe{Machine: "machine" + strconv.Itoa(i+1), Node: model.NodeCPU}
	}
	return p
}

// newSolver compiles the default cluster and builds its solver with
// automatic workers, timing each half.
func newSolver(machines, workers int) (sol *solver.Solver, compile, build time.Duration, err error) {
	start := time.Now()
	cm, err := model.DefaultCluster("room", machines)
	if err != nil {
		return nil, 0, 0, err
	}
	compile = time.Since(start)
	start = time.Now()
	sol, err = solver.New(cm, solver.Config{Workers: workers})
	build = time.Since(start)
	return sol, compile, build, err
}

// replayJob is the timed offline job: parse the trace text, replay it
// through trace.Replay, and write the temperature log.
func replayJob(sol *solver.Solver, text []byte, probes []trace.Probe) ([]byte, error) {
	tr, err := trace.ReadTrace(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	log, err := trace.Replay(sol, tr, probes, offlineSampleEvery)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := log.Write(&out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// replayDriven replays tr the way trace.Replay does, but drives the
// solver's SetUtilization, Step and Temperature calls itself, inside
// spans when rec is non-nil. Its log must be bit-identical to
// trace.Replay's. allocs, when non-nil, receives each Step's
// allocation count.
func replayDriven(sol *solver.Solver, tr *trace.Trace, probes []trace.Probe, every time.Duration, rec *Recorder, allocs *[]float64) (*trace.TempLog, error) {
	log := &trace.TempLog{}
	sample := func(at time.Duration) error {
		id := rec.Begin("solver.sample")
		for _, p := range probes {
			t, err := sol.Temperature(p.Machine, p.Node)
			if err != nil {
				return err
			}
			log.Records = append(log.Records, trace.TempRecord{At: at, Machine: p.Machine, Node: p.Node, Temp: t})
		}
		rec.End(id, len(probes))
		return nil
	}
	idx := 0
	apply := func(until time.Duration) error {
		id := rec.Begin("solver.apply")
		n := 0
		for ; idx < len(tr.Records) && tr.Records[idx].At <= until; idx++ {
			r := tr.Records[idx]
			if err := sol.SetUtilization(r.Machine, r.Source, r.Util); err != nil {
				return fmt.Errorf("replay at %v: %w", r.At, err)
			}
			n++
		}
		rec.End(id, n)
		return nil
	}
	var m0, m1 runtime.MemStats
	start, end := sol.Now(), tr.Duration()
	if err := apply(0); err != nil {
		return nil, err
	}
	if err := sample(0); err != nil {
		return nil, err
	}
	next := every
	for sol.Now()-start < end {
		if allocs != nil {
			runtime.ReadMemStats(&m0)
		}
		id := rec.Begin("solver.step")
		sol.Step()
		rec.End(id, 1)
		if allocs != nil {
			runtime.ReadMemStats(&m1)
			a, _ := memDelta(&m0, &m1)
			*allocs = append(*allocs, a)
		}
		now := sol.Now() - start
		if err := apply(now); err != nil {
			return nil, err
		}
		if now >= next {
			if err := sample(now); err != nil {
				return nil, err
			}
			next += every
		}
	}
	return log, nil
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return fmt.Sprintf("%x", h[:4])
}

// checkCanary replays the fixed canary trace on a serial solver.
func checkCanary() error {
	sol, _, _, err := newSolver(canary.machines, 1)
	if err != nil {
		return err
	}
	out, err := replayJob(sol, genTrace(canary.seed, canary.machines, canary.dur), cpuProbes(canary.machines))
	if err != nil {
		return err
	}
	if got := digestBytes(out); got != canary.digest {
		return fmt.Errorf("canary replay log digest %s, recorded %s", got, canary.digest)
	}
	return nil
}

// offlineSetup builds the workload's solver offlineSetupRuns times
// after one warm-up build, reporting the median set-up, compile and
// build times, and returns the last solver with its initial state.
func offlineSetup() (sol *solver.Solver, init *solver.State, setup, compile, build float64, err error) {
	var ss, cs, bs []float64
	for i := 0; i <= offlineSetupRuns; i++ {
		sol = nil
		runtime.GC()
		var c, n time.Duration
		if sol, c, n, err = newSolver(offlineMachines, 0); err != nil {
			return nil, nil, 0, 0, 0, err
		}
		if i > 0 {
			ss = append(ss, (c + n).Seconds())
			cs = append(cs, c.Seconds())
			bs = append(bs, n.Seconds())
		}
	}
	return sol, sol.SaveState(), median(ss), median(cs), median(bs), nil
}

// offlineReference is the reference log digest for text: the
// benchmark's own replay loop, which shares no code with trace.Replay
// beyond the solver.
func offlineReference(sol *solver.Solver, init *solver.State, text []byte, probes []trace.Probe) (string, error) {
	if err := sol.RestoreState(init); err != nil {
		return "", err
	}
	tr, err := trace.ReadTrace(bytes.NewReader(text))
	if err != nil {
		return "", err
	}
	log, err := replayDriven(sol, tr, probes, offlineSampleEvery, nil, nil)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	if err := log.Write(&out); err != nil {
		return "", err
	}
	return digestBytes(out.Bytes()), nil
}

// timedJob restores the initial state and times one replayJob.
func timedJob(sol *solver.Solver, init *solver.State, text []byte, probes []trace.Probe) (out []byte, wall time.Duration, allocs, bytes float64, err error) {
	if err := sol.RestoreState(init); err != nil {
		return nil, 0, 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out, err = replayJob(sol, text, probes)
	wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	allocs, bytes = memDelta(&m0, &m1)
	return out, wall, allocs, bytes, err
}

// runOffline measures the offline-replay workload end to end.
func runOffline(b *bench) error {
	if b.trace {
		return traceOffline(b)
	}
	sol, init, setup, _, _, err := offlineSetup()
	if err != nil {
		return err
	}
	b.set("setup_s", setup, "s")
	if err := checkCanary(); err != nil {
		b.fail(int64(canary.machines)*int64(canary.dur/time.Second), "%v", err)
	}

	text := genTrace(b.seed, offlineMachines, offlineDur)
	probes := cpuProbes(offlineMachines)
	ref, err := offlineReference(sol, init, text, probes)
	if err != nil {
		return err
	}

	emu := offlineDur.Seconds()
	ops := int64(offlineMachines) * int64(emu)
	var rates, allocs, bytes []float64
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < b.seconds; i++ {
		b.attempted += ops
		out, wall, a, by, err := timedJob(sol, init, text, probes)
		if err != nil {
			b.fail(ops, "job %d: %v", i, err)
			continue
		}
		if got := digestBytes(out); got != ref {
			b.fail(ops, "job %d: log digest %s, reference %s", i, got, ref)
			continue
		}
		rates = append(rates, emu/wall.Seconds())
		allocs = append(allocs, a/emu)
		bytes = append(bytes, by/emu)
	}
	if len(rates) == 0 {
		return fmt.Errorf("no job passed its output check")
	}
	fmt.Printf("jobs %d, trace %d bytes, emu-s/s %.1f\n", len(rates), len(text), rates)
	m := float64(offlineMachines)
	b.set("emu_s_per_s", median(rates), "emu-s/s")
	b.set("allocs_per_emu_s", median(allocs), "allocs/emu-s")
	b.set("alloc_bytes_per_emu_s", median(bytes), "B/emu-s")
	b.set("machine_steps_per_s", m*median(rates), "steps/s")
	b.set("allocs_per_machine_step", median(allocs)/m, "allocs/step")
	return nil
}

// traceOffline is the traced run of offline-replay: untraced
// trace.Replay jobs for the end-to-end wall time, then one job driven
// by the benchmark with spans around the parse, every apply, step and
// sample, and the log write, then an allocation-counting pass.
func traceOffline(b *bench) error {
	b.zeroLayers()
	sol, init, _, compile, build, err := offlineSetup()
	if err != nil {
		return err
	}
	b.layer("model.compile_s", compile)
	b.layer("solver.new_s", build)
	text := genTrace(b.seed, offlineMachines, offlineDur)
	probes := cpuProbes(offlineMachines)
	ops := int64(offlineMachines) * int64(offlineDur/time.Second)

	var walls []float64
	var ref string
	for i := 0; i < programRuns; i++ {
		b.attempted += ops
		out, wall, _, _, err := timedJob(sol, init, text, probes)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		if d := digestBytes(out); ref == "" {
			ref = d
		} else if d != ref {
			b.fail(ops, "job %d: log digest %s, first job %s", i, d, ref)
		}
	}
	wall := median(walls)

	if err := sol.RestoreState(init); err != nil {
		return err
	}
	runtime.GC()
	b.attempted += ops
	rec := NewRecorder(1 << 12)
	job := rec.Begin("job")
	id := rec.Begin("trace.parse")
	tr, err := trace.ReadTrace(bytes.NewReader(text))
	rec.End(id, len(text))
	if err != nil {
		return err
	}
	log, err := replayDriven(sol, tr, probes, offlineSampleEvery, rec, nil)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	id = rec.Begin("trace.write")
	err = log.Write(&out)
	rec.End(id, out.Len())
	if err != nil {
		return err
	}
	rec.End(job, 1)
	if d := digestBytes(out.Bytes()); d != ref {
		b.fail(ops, "traced job log digest %s, trace.Replay's %s", d, ref)
	}
	if err := writeSpans(b, rec); err != nil {
		return err
	}

	if err := sol.RestoreState(init); err != nil {
		return err
	}
	var stepAllocs []float64
	if _, err := replayDriven(sol, tr, probes, offlineSampleEvery, nil, &stepAllocs); err != nil {
		return err
	}

	lt := SelfTimes(rec.Spans())
	parse, write, step := lt["trace.parse"], lt["trace.write"], lt["solver.step"]
	b.layer("trace.parse_mb_per_s", float64(parse.Ops)/1e6/parse.Total.Seconds())
	b.layer("trace.write_mb_per_s", float64(write.Ops)/1e6/write.Total.Seconds())
	b.layer("solver.apply_ns", float64(lt["solver.apply"].PerOp()))
	b.layer("solver.step_us", median(step.Durs)*1e6)
	b.layer("solver.sample_ns", float64(lt["solver.sample"].PerOp()))
	var allocs float64
	for _, a := range stepAllocs {
		allocs += a
	}
	b.layer("solver.allocs_per_step", allocs/float64(len(stepAllocs)))
	b.layer("solver.step_share", step.Self.Seconds()/wall)
	var self time.Duration
	for name, l := range lt {
		if name != "job" {
			self += l.Self
		}
	}
	b.layer("harness.unaccounted_share", 1-self.Seconds()/wall)
	b.layer("harness.trace_overhead_share", lt["job"].Total.Seconds()/wall-1)
	fmt.Printf("paper §2.3: solver iteration ~100 us (here %.0f us for %d machines)\n", median(step.Durs)*1e6, offlineMachines)
	return nil
}
