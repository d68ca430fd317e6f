package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

func TestSquareShape(t *testing.T) {
	tr := Square("m", model.UtilCPU, []units.Fraction{0.5, 1.0}, 100*time.Second, 50*time.Second)
	// level, idle, level, idle, closing zero.
	if len(tr.Records) != 5 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	if tr.Records[0].Util != 0.5 || tr.Records[0].At != 0 {
		t.Errorf("first = %+v", tr.Records[0])
	}
	if tr.Records[1].Util != 0 || tr.Records[1].At != 100*time.Second {
		t.Errorf("second = %+v", tr.Records[1])
	}
	if tr.Records[2].Util != 1 || tr.Records[2].At != 150*time.Second {
		t.Errorf("third = %+v", tr.Records[2])
	}
	if tr.Duration() != 300*time.Second {
		t.Errorf("duration = %v", tr.Duration())
	}
}

func TestCalibrationBenchmarks(t *testing.T) {
	cpu := CPUCalibration("server")
	if cpu.Duration() != 14000*time.Second {
		t.Errorf("CPU calibration duration = %v, want 14000s (Figure 5)", cpu.Duration())
	}
	for _, r := range cpu.Records {
		if r.Source != model.UtilCPU {
			t.Fatalf("CPU calibration touches %s", r.Source)
		}
	}
	disk := DiskCalibration("server")
	if disk.Duration() != 14000*time.Second {
		t.Errorf("disk calibration duration = %v", disk.Duration())
	}
	for _, r := range disk.Records {
		if r.Source != model.UtilDisk {
			t.Fatalf("disk calibration touches %s", r.Source)
		}
	}
}

func TestCombinedBenchmark(t *testing.T) {
	tr := Combined("m", 7, 5000*time.Second, 50*time.Second)
	if tr.Duration() != 5000*time.Second {
		t.Errorf("duration = %v", tr.Duration())
	}
	// Both sources exercised; values vary.
	perSource := map[model.UtilSource]map[units.Fraction]bool{}
	for _, r := range tr.Records {
		if perSource[r.Source] == nil {
			perSource[r.Source] = map[units.Fraction]bool{}
		}
		perSource[r.Source][r.Util] = true
	}
	if len(perSource[model.UtilCPU]) < 10 || len(perSource[model.UtilDisk]) < 10 {
		t.Errorf("combined benchmark not varied: cpu=%d disk=%d levels",
			len(perSource[model.UtilCPU]), len(perSource[model.UtilDisk]))
	}
	// Deterministic per seed.
	again := Combined("m", 7, 5000*time.Second, 50*time.Second)
	if len(again.Records) != len(tr.Records) {
		t.Fatal("non-deterministic record count")
	}
	for i := range tr.Records {
		if tr.Records[i] != again.Records[i] {
			t.Fatal("non-deterministic records")
		}
	}
	other := Combined("m", 8, 5000*time.Second, 50*time.Second)
	same := len(other.Records) == len(tr.Records)
	if same {
		diff := false
		for i := range tr.Records {
			if tr.Records[i].Util != other.Records[i].Util {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical benchmarks")
	}
}

func TestWebRateShape(t *testing.T) {
	cfg := WebConfig{Duration: 2000 * time.Second, PeakRPS: 100, ValleyShare: 0.15, Seed: 1}
	start := cfg.Rate(0)
	end := cfg.Rate(2000 * time.Second)
	if start > 20 || end > 20 {
		t.Errorf("valleys too high: start=%v end=%v", start, end)
	}
	// The peak approaches PeakRPS somewhere in the middle.
	peak := 0.0
	for s := 0; s <= 2000; s += 10 {
		if r := cfg.Rate(time.Duration(s) * time.Second); r > peak {
			peak = r
		}
	}
	if peak < 95 {
		t.Errorf("peak = %v, want near 100", peak)
	}
	// Rate stays within [valley, peak] everywhere.
	for s := -100; s <= 2100; s += 7 {
		r := cfg.Rate(time.Duration(s) * time.Second)
		if r < 14.9 || r > 100.1 {
			t.Errorf("rate(%ds) = %v escapes bounds", s, r)
		}
	}
}

func TestGenerateWeb(t *testing.T) {
	cfg := WebConfig{Duration: 2000 * time.Second, PeakRPS: 100, DynamicShare: 0.3, Seed: 1}
	reqs := GenerateWeb(cfg)
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	// Arrivals sorted and in range.
	dynamic := 0
	for i, r := range reqs {
		if r.At < 0 || r.At >= cfg.Duration {
			t.Fatalf("request %d at %v outside trace", i, r.At)
		}
		if i > 0 && r.At < reqs[i-1].At {
			t.Fatal("arrivals not sorted")
		}
		if r.Dynamic {
			dynamic++
		}
	}
	share := float64(dynamic) / float64(len(reqs))
	if share < 0.25 || share > 0.35 {
		t.Errorf("dynamic share = %v, want ~0.30", share)
	}
	// More arrivals in the busy middle third than the first (valley).
	third := cfg.Duration / 3
	counts := [3]int{}
	for _, r := range reqs {
		counts[int(r.At/third)]++
	}
	if counts[1] < 2*counts[0] {
		t.Errorf("diurnal shape missing: thirds = %v", counts)
	}
	// Deterministic.
	again := GenerateWeb(cfg)
	if len(again) != len(reqs) {
		t.Error("non-deterministic generation")
	}
}

func TestWebDefaults(t *testing.T) {
	cfg := WebConfig{}.withDefaults()
	if cfg.Duration != 2000*time.Second || cfg.PeakRPS != 100 ||
		cfg.ValleyShare != 0.15 || cfg.DynamicShare != 0.3 {
		t.Errorf("defaults = %+v", cfg)
	}
}

// referenceWeb is GenerateWeb's original single-pass loop, kept as the
// oracle for the draw order: Exp gap, thinning Float64 against Rate on
// the truncated Duration, then the dynamic-share Float64.
func referenceWeb(cfg WebConfig) []Request {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Request
	t := 0.0
	end := cfg.Duration.Seconds()
	for {
		t += rng.ExpFloat64() / cfg.PeakRPS
		if t >= end {
			return out
		}
		at := time.Duration(t * float64(time.Second))
		if rng.Float64()*cfg.PeakRPS > cfg.Rate(at) {
			continue
		}
		out = append(out, Request{At: at, Dynamic: rng.Float64() < cfg.DynamicShare})
	}
}

func TestWebStreamChunksMatchGenerateWeb(t *testing.T) {
	irregular := []time.Duration{
		time.Nanosecond, 999 * time.Millisecond, 3 * time.Second, 1500 * time.Millisecond,
		0, 37 * time.Second, 250 * time.Millisecond, 11 * time.Second,
	}
	for _, seed := range []int64{1, 2, 42} {
		cfg := WebConfig{Duration: 600 * time.Second, PeakRPS: 300, Seed: seed}
		want := GenerateWeb(cfg)
		if ref := referenceWeb(cfg); !slices.Equal(want, ref) {
			t.Fatalf("seed %d: GenerateWeb (%d) differs from the reference loop (%d)", seed, len(want), len(ref))
		}
		chunkings := map[string]func(i int) time.Duration{
			"1s":        func(int) time.Duration { return time.Second },
			"7s":        func(int) time.Duration { return 7 * time.Second },
			"irregular": func(i int) time.Duration { return irregular[i%len(irregular)] },
		}
		for name, step := range chunkings {
			s := NewWebStream(cfg)
			var got, batch []Request
			limit := time.Duration(0)
			for i := 0; limit <= cfg.Duration; i++ {
				limit += step(i)
				batch = s.AppendUntil(batch[:0], limit)
				for _, r := range batch {
					if r.At >= limit {
						t.Fatalf("seed %d %s: arrival %v at or past limit %v", seed, name, r.At, limit)
					}
				}
				got = append(got, batch...)
			}
			if tail := s.AppendUntil(nil, math.MaxInt64); len(tail) != 0 {
				t.Errorf("seed %d %s: %d arrivals after the trace's end", seed, name, len(tail))
			}
			if !slices.Equal(got, want) {
				t.Errorf("seed %d %s: stream gave %d arrivals, GenerateWeb %d", seed, name, len(got), len(want))
			}
		}
	}
}

func TestWebStreamAppendAllocs(t *testing.T) {
	s := NewWebStream(WebConfig{Duration: 2000 * time.Second, PeakRPS: 300, Seed: 1})
	batch := make([]Request, 0, 1024)
	limit := time.Duration(0)
	if n := testing.AllocsPerRun(500, func() {
		limit += time.Second
		batch = s.AppendUntil(batch[:0], limit)
	}); n != 0 {
		t.Errorf("AppendUntil into a reused slice: %v allocs/op, want 0", n)
	}
}
