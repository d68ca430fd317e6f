package monitord

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/darklab/mercury/internal/clock"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/procfs"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// captureServer collects utilization updates it receives.
func captureServer(t *testing.T) (string, chan *wire.UtilUpdate) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ch := make(chan *wire.UtilUpdate, 64)
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if u, err := wire.UnmarshalUtilUpdate(buf[:n]); err == nil {
				ch <- u
			}
		}
	}()
	return conn.LocalAddr().String(), ch
}

func TestConfigValidation(t *testing.T) {
	synth := procfs.NewSynthetic(model.UtilCPU)
	if _, err := New(Config{Sampler: synth, SolverAddr: "127.0.0.1:1"}); err == nil {
		t.Error("missing machine: want error")
	}
	if _, err := New(Config{Machine: "m", SolverAddr: "127.0.0.1:1"}); err == nil {
		t.Error("missing sampler: want error")
	}
	if _, err := New(Config{Machine: "m", Sampler: synth, SolverAddr: "bad::::addr"}); err == nil {
		t.Error("bad address: want error")
	}
}

func TestSampleOnceSendsSequencedUpdates(t *testing.T) {
	addr, ch := captureServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	synth.Set(model.UtilCPU, 0.6)
	d, err := New(Config{Machine: "machine1", Sampler: synth, SolverAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		if err := d.SampleOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Sent() != 3 {
		t.Errorf("Sent = %d", d.Sent())
	}
	for want := uint32(1); want <= 3; want++ {
		select {
		case u := <-ch:
			if u.Seq != want {
				t.Errorf("seq = %d, want %d", u.Seq, want)
			}
			if u.Machine != "machine1" {
				t.Errorf("machine = %q", u.Machine)
			}
			var cpuSeen bool
			for _, e := range u.Entries {
				if e.Source == model.UtilCPU && e.Util == 0.6 {
					cpuSeen = true
				}
			}
			if !cpuSeen {
				t.Errorf("update %d missing cpu=0.6: %+v", want, u.Entries)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("update %d never arrived", want)
		}
	}
}

// TestSampleOnceConcurrent calls SampleOnce from several goroutines
// at once: the reused encode buffer and update struct must still yield
// one intact datagram per call, each with its own sequence number.
func TestSampleOnceConcurrent(t *testing.T) {
	addr, ch := captureServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU, model.UtilDisk)
	synth.Set(model.UtilCPU, 0.25)
	synth.Set(model.UtilDisk, 0.5)
	d, err := New(Config{Machine: "machine1", Sampler: synth, SolverAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const workers, each = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := d.SampleOnce(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for len(seen) < workers*each {
		select {
		case u := <-ch:
			if seen[u.Seq] || u.Seq == 0 || u.Seq > workers*each {
				t.Fatalf("duplicate or out-of-range seq %d", u.Seq)
			}
			seen[u.Seq] = true
			if u.Machine != "machine1" || len(u.Entries) != 2 ||
				u.Entries[0] != (wire.UtilEntry{Source: model.UtilCPU, Util: 0.25}) ||
				u.Entries[1] != (wire.UtilEntry{Source: model.UtilDisk, Util: 0.5}) {
				t.Fatalf("corrupted update %+v", u)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("received %d of %d updates", len(seen), workers*each)
		}
	}
}

type badSampler struct{}

func (badSampler) Sample() (map[model.UtilSource]units.Fraction, error) {
	return nil, errors.New("boom")
}

func TestSampleOnceSamplerError(t *testing.T) {
	addr, _ := captureServer(t)
	d, err := New(Config{Machine: "m", Sampler: badSampler{}, SolverAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SampleOnce(); err == nil {
		t.Error("sampler failure: want error")
	}
	if d.Sent() != 0 {
		t.Errorf("Sent = %d after failure", d.Sent())
	}
}

func TestRunLoop(t *testing.T) {
	addr, ch := captureServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU)
	d, err := New(Config{Machine: "m", Sampler: synth, SolverAddr: addr, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err = d.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v", err)
	}
	if len(ch) < 2 {
		t.Errorf("received %d updates, want several", len(ch))
	}
}

// TestRunVirtualClock drives the sampling loop with a virtual clock:
// each one-second advance must produce exactly one update.
func TestRunVirtualClock(t *testing.T) {
	addr, ch := captureServer(t)
	synth := procfs.NewSynthetic(model.UtilCPU)
	synth.Set(model.UtilCPU, 0.5)
	clk := clock.NewVirtual()
	d, err := New(Config{Machine: "machine1", Sampler: synth, SolverAddr: addr, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- d.RunReady(ctx, ready) }()
	<-ready

	for i := uint64(1); i <= 3; i++ {
		clk.Advance(time.Second)
		deadline := time.Now().Add(5 * time.Second)
		for d.Sent() != i {
			if time.Now().After(deadline) {
				t.Fatalf("after advance %d: sent = %d", i, d.Sent())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := uint32(1); i <= 3; i++ {
		select {
		case u := <-ch:
			if u.Seq != i {
				t.Errorf("update %d has seq %d", i, u.Seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("update never arrived")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("Run returned %v, want context.Canceled", err)
	}
}
