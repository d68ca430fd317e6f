package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/recordlog"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/webcluster"
)

// TestMain runs the tests from the repository root, where the
// benchmark itself runs: it reads golden files and writes scratch
// files relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 1000, p: 99, want: 990, ok: true}, // exactly 10 beyond
		{n: 999, p: 99, ok: false},            // 9 beyond
		{n: 20, p: 50, want: 10, ok: true},
		{n: 19, p: 50, ok: false},
		{n: 0, p: 50, ok: false},
		{n: 100, p: 0, ok: false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("percentile(%d samples, p%g) = %v, %v; want %v, ok=%v", tc.n, tc.p, got, err, tc.want, tc.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "freon", Parent: -1, Start: 0, End: 100 * ms, N: 1},
		{Name: "sample", Parent: 0, Start: 10 * ms, End: 30 * ms, N: 1},
		{Name: "sample", Parent: 0, Start: 40 * ms, End: 50 * ms, N: 1},
		{Name: "inner", Parent: 2, Start: 42 * ms, End: 45 * ms},
		{Name: "freon", Parent: -1, Start: 200 * ms, End: 210 * ms, N: 1},
	}
	got := SelfTimes(spans)
	want := map[string]struct {
		calls       int
		total, self time.Duration
	}{
		"freon":  {2, 110 * ms, 80 * ms},
		"sample": {2, 30 * ms, 27 * ms},
		"inner":  {1, 3 * ms, 3 * ms},
	}
	for name, w := range want {
		l := got[name]
		if l == nil || l.Calls != w.calls || l.Total != w.total || l.Self != w.self {
			t.Errorf("%s: got %+v, want calls %d total %v self %v", name, l, w.calls, w.total, w.self)
		}
	}
	if got["sample"].PerOp() != 13500*time.Microsecond {
		t.Errorf("sample PerOp = %v, want 13.5ms", got["sample"].PerOp())
	}
}

func TestRecorderNesting(t *testing.T) {
	var off *Recorder
	off.End(off.Begin("x"), 1) // a nil recorder records nothing
	if off.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}

	r := NewCountingRecorder(8)
	outer := r.Begin("outer")
	keep := make([][]byte, 0, 8)
	inner := r.Begin("inner")
	for i := 0; i < 5; i++ {
		keep = append(keep, make([]byte, 64))
	}
	r.End(inner, 5)
	r.End(outer, 1)
	sp := r.Spans()
	if len(sp) != 2 || sp[1].Parent != 0 || sp[0].Parent != -1 || sp[1].N != 5 {
		t.Fatalf("spans = %+v", sp)
	}
	lt := SelfTimes(sp)
	if lt["inner"].Allocs < 5 {
		t.Errorf("inner allocs = %d, want >= 5", lt["inner"].Allocs)
	}
	if lt["outer"].Allocs > 1 {
		t.Errorf("outer self allocs = %d; the child's allocations leaked into it", lt["outer"].Allocs)
	}
	if sp[0].End < sp[1].End || sp[1].Start < sp[0].Start {
		t.Errorf("child span outside its parent: %+v", sp)
	}
	_ = keep
}

func TestOnlineDigestDiff(t *testing.T) {
	mk := func() *online.Result {
		return &online.Result{
			Samples:     []online.Sample{{Sec: 9, Temps: []units.Celsius{40.5, 41}}},
			Totals:      webcluster.Totals{Arrived: 10},
			Adjustments: map[string]int{"machine1": 2, "machine2": 0},
			Events:      []telemetry.Event{{At: time.Second, Type: telemetry.EvFiddle, Machine: "machine1"}},
		}
	}
	ref := digestOnline(mk())
	if bad := digestOnline(mk()).diff(ref); len(bad) != 0 {
		t.Fatalf("identical results differ in %v", bad)
	}
	for part, mutate := range map[string]func(*online.Result){
		"samples":     func(r *online.Result) { r.Samples[0].Temps[1] = 41.0000001 },
		"totals":      func(r *online.Result) { r.Totals.Arrived++ },
		"adjustments": func(r *online.Result) { r.Adjustments["machine2"] = 1 },
		"events":      func(r *online.Result) { r.Events[0].Machine = "machine3" },
		"alerts":      func(r *online.Result) { r.Alerts = r.Events },
	} {
		r := mk()
		mutate(r)
		if bad := digestOnline(r).diff(ref); len(bad) != 1 || bad[0] != part {
			t.Errorf("mutating %s: diff = %v", part, bad)
		}
	}
}

func TestCheckGoldenRejectsChangedLog(t *testing.T) {
	res := &online.Result{Events: []telemetry.Event{{At: time.Second, Type: telemetry.EvFiddle, Machine: "machine1"}}}
	if err := checkGolden(res); err == nil {
		t.Fatal("a one-event log matched the Figure 11 golden")
	}
}

func TestSpanMismatchCountsMultiset(t *testing.T) {
	res, err := online.Run(online.Config{Duration: 30 * time.Second, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Spans
	if len(spans) == 0 {
		t.Fatal("traced run has no spans")
	}
	if n := spanMismatch(spans, spans); n != 0 {
		t.Errorf("a span set mismatches itself in %d spans", n)
	}
	dup := append(append(spans[:0:0], spans...), spans[0])
	if n := spanMismatch(dup, spans); n != 1 {
		t.Errorf("one extra copy of a span counted as %d mismatches", n)
	}
	changed := append(spans[:0:0], spans...)
	changed[0].End++
	if n := spanMismatch(changed, spans); n != 1 {
		t.Errorf("one changed span counted as %d mismatches", n)
	}
}

// TestOfflineOutputCheck pins the offline output check: the benchmark's
// own replay loop and trace.Replay give the same log digest, a
// restored solver repeats it, and a changed trace does not.
func TestOfflineOutputCheck(t *testing.T) {
	const machines = 40
	sol, _, _, err := newSolver(machines, 0)
	if err != nil {
		t.Fatal(err)
	}
	init := sol.SaveState()
	text := genTrace(5, machines, 120*time.Second)
	probes := cpuProbes(machines)
	ref, err := offlineReference(sol, init, text, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		out, _, _, _, err := timedJob(sol, init, text, probes)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestBytes(out); got != ref {
			t.Fatalf("job %d digest %s, reference %s", i, got, ref)
		}
	}
	other, err := offlineReference(sol, init, genTrace(6, machines, 120*time.Second), probes)
	if err != nil {
		t.Fatal(err)
	}
	if other == ref {
		t.Error("a different trace gave the same log digest")
	}
	if err := checkCanary(); err != nil {
		t.Error(err)
	}
}

// utilLog builds a capture of util records, one per (machine, seq,
// tick) triple, in file order.
func utilLog(recs ...[3]int) *recordlog.Log {
	c := &recordlog.Log{}
	for _, r := range recs {
		u := &recordlog.UtilRecord{Tick: uint64(r[2]), Seq: uint32(r[1]), Machine: fmt.Sprintf("machine%d", r[0])}
		c.Inputs = append(c.Inputs, recordlog.Input{Tick: u.Tick, Util: u})
	}
	return c
}

// TestRestampLate pins the capture stamp rule: report s carries tick
// s-1, and only the last report of a second may be one tick late.
func TestRestampLate(t *testing.T) {
	c := utilLog([3]int{1, 1, 0}, [3]int{2, 1, 0}, [3]int{1, 2, 1}, [3]int{2, 2, 2}, [3]int{1, 3, 2}, [3]int{2, 3, 2})
	c.Inputs = append(c.Inputs, recordlog.Input{Tick: 7, Fiddle: &recordlog.FiddleRecord{}})
	n, err := restampLate(c)
	if err != nil || n != 1 {
		t.Fatalf("restampLate = %d, %v; want 1, nil", n, err)
	}
	if in := c.Inputs[3]; in.Tick != 1 || in.Util.Tick != 1 {
		t.Errorf("late record restamped to %d/%d, want 1", in.Tick, in.Util.Tick)
	}
	if c.Inputs[6].Tick != 7 {
		t.Error("a fiddle record was restamped")
	}
	for _, bad := range []*recordlog.Log{
		utilLog([3]int{1, 1, 1}, [3]int{2, 1, 0}), // late, but not last of its second
		utilLog([3]int{1, 1, 0}, [3]int{2, 1, 2}), // two ticks late
		utilLog([3]int{1, 2, 0}, [3]int{2, 2, 1}), // early
		utilLog([3]int{1, 0, 0}),                  // no such report
	} {
		if _, err := restampLate(bad); err == nil {
			t.Errorf("restampLate accepted %+v", bad.Inputs)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, code has %d", names, len(workloads))
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code %d", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if f.PerLayer[i].Name != m.name || f.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, code has %s %s", i, f.PerLayer[i], m.name, m.unit)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at reduced size,
// and requires a clean result carrying exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	f := readBenchmarkFile(t)
	defer func(d time.Duration, m int) { onlineDur, offlineMachines = d, m }(onlineDur, offlineMachines)
	onlineDur = 1010 * time.Second // a p99 over ticks needs 1000 of them
	offlineMachines = 300
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			b := &bench{workload: w.Name, seed: 3, seconds: time.Second, trace: traced, metrics: map[string]metric{}}
			if err := workloads[w.Name](b); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !traced {
				b.set("peak_rss_mb", peakRSSMB(), "MB")
			}
			if len(b.problems) > 0 || b.failed != 0 || b.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d problems %v", w.Name, traced, b.attempted, b.failed, b.problems)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			var got, exp []string
			for n, m := range b.metrics {
				got = append(got, n+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if len(got) != len(exp) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.Name, traced, got, exp)
				continue
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Errorf("%s trace=%v: metric %q, want %q", w.Name, traced, got[i], exp[i])
				}
			}
			if !traced {
				for n, m := range b.metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, n, m.Value)
					}
				}
			}
		}
	}
}
