package webcluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/workload"
)

// tickDigest is the FNV-64a digest of TestTickSecondDigest's trace. It
// pins the exact arithmetic of TickSecond and lvs's scheduler: any
// change to slot assignment, the order busy time accumulates in, or
// balancer tie-breaking moves it.
const tickDigest = 0xf65c4392b6aeb872

// TestTickSecondDigest drives a seeded, overloaded 2000 s trace through
// a 4-server cluster while every control Freon and the experiments use
// is exercised — power off (dropping queued work) and on, half speed,
// weight 0 and fractional weights, a connection cap, a class block —
// and digests every Tick, the running Totals, each server's Conns and
// utilizations, and the balancer's connection counters.
func TestTickSecondDigest(t *testing.T) {
	names := []string{"machine1", "machine2", "machine3", "machine4"}
	bal := lvs.New()
	c, err := New(bal, names, Config{QueueCap: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Peak demand is ~1.15x the cluster's CPU capacity, so queues hit
	// QueueCap on the plateau.
	reqs := workload.GenerateWeb(workload.WebConfig{Duration: 2000 * time.Second, PeakRPS: 520, Seed: 7})

	type action struct {
		at int
		do func() error
	}
	actions := []action{
		{300, func() error { return c.SetPower("machine2", false) }},
		{400, func() error { return c.SetPower("machine2", true) }},
		{500, func() error { return c.SetSpeed("machine3", 0.5) }},
		{600, func() error { return bal.SetWeight("machine4", 0) }},
		{800, func() error { return bal.SetWeight("machine4", 1) }},
		{850, func() error { return bal.SetWeight("machine1", 0.5) }},
		{900, func() error { return bal.SetConnLimit("machine1", 5) }},
		{1000, func() error { return bal.SetClassBlocked("machine2", ClassDynamic, true) }},
		{1100, func() error { return bal.SetConnLimit("machine1", 0) }},
		{1150, func() error { return bal.SetWeight("machine1", 1) }},
		{1200, func() error { return c.SetPower("machine4", false) }},
		{1250, func() error { return c.SetPower("machine4", true) }},
		{1300, func() error { return bal.SetClassBlocked("machine2", ClassDynamic, false) }},
		{1500, func() error { return c.SetSpeed("machine3", 1) }},
	}

	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }

	idx, act := 0, 0
	var batch []workload.Request
	for sec := 0; sec < 2000; sec++ {
		for act < len(actions) && actions[act].at == sec {
			if err := actions[act].do(); err != nil {
				t.Fatal(err)
			}
			act++
		}
		limit := time.Duration(sec+1) * time.Second
		batch = batch[:0]
		for idx < len(reqs) && reqs[idx].At < limit {
			batch = append(batch, reqs[idx])
			idx++
		}
		tick := c.TickSecond(batch)
		put(uint64(tick.Arrived))
		put(uint64(tick.Dropped))
		put(uint64(tick.Completed))
		put(uint64(len(tick.PerServer)))
		for _, m := range names {
			st := tick.PerServer[m]
			putF(float64(st.CPUUtil))
			putF(float64(st.DiskUtil))
			put(uint64(st.Assigned))
			put(uint64(st.Completed))
			put(uint64(st.CompletedDynamic))
			put(uint64(st.Dropped))
			put(uint64(st.Conns))
			conns, err := c.Conns(m)
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(conns))
			utils, err := c.Utilizations(m)
			if err != nil {
				t.Fatal(err)
			}
			putF(float64(utils[model.UtilCPU]))
			putF(float64(utils[model.UtilDisk]))
			active, err := bal.ActiveConns(m)
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(active))
			if sec%5 == 4 {
				peak, err := bal.TakePeakConns(m)
				if err != nil {
					t.Fatal(err)
				}
				put(uint64(peak))
			}
		}
		tot := c.Totals()
		put(tot.Arrived)
		put(tot.Completed)
		put(tot.Dropped)
	}

	tot := c.Totals()
	if tot.Dropped == 0 || tot.Completed == 0 {
		t.Fatalf("trace exercised too little: totals %+v", tot)
	}
	if got := h.Sum64(); got != tickDigest {
		t.Errorf("digest = %#x, want %#x (totals %+v)", got, uint64(tickDigest), tot)
	}
}

// steadyBatch is one busy second of arrivals spread over every
// sub-slot, reused tick after tick.
func steadyBatch() []workload.Request {
	return workload.GenerateWeb(workload.WebConfig{Duration: time.Second, PeakRPS: 400, ValleyShare: 1, Seed: 3})
}

var perServerSink map[string]ServerTick

// TestTickSecondAllocs pins TickSecond's steady state: the only
// allocations left are the Tick.PerServer map the caller receives.
func TestTickSecondAllocs(t *testing.T) {
	names := []string{"machine1", "machine2", "machine3", "machine4"}
	c, err := New(lvs.New(), names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	batch := steadyBatch()
	for i := 0; i < 50; i++ {
		c.TickSecond(batch) // grow the queues to their working size
	}
	perServer := testing.AllocsPerRun(200, func() {
		m := make(map[string]ServerTick, len(names))
		for _, n := range names {
			m[n] = ServerTick{}
		}
		perServerSink = m
	})
	if n := testing.AllocsPerRun(200, func() { c.TickSecond(batch) }); n > perServer {
		t.Errorf("TickSecond: %v allocs/op, want <= %v (the PerServer map)", n, perServer)
	}
}

func BenchmarkTickSecond(b *testing.B) {
	c, err := New(lvs.New(), []string{"machine1", "machine2", "machine3", "machine4"}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	batch := steadyBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.TickSecond(batch)
	}
}
