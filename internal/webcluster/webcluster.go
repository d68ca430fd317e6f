// Package webcluster emulates the paper's evaluation substrate: a Web
// server cluster behind an LVS load balancer serving a synthetic trace
// with 30% dynamic-content requests (a CGI script computing for 25 ms)
// and 70% static requests. The emulation advances in one-second ticks
// in lockstep with the Mercury solver: each tick assigns the second's
// arrivals through the balancer, advances per-server FIFO queues, and
// reports per-server CPU and disk utilizations for the thermal model,
// plus served/dropped counts for throughput accounting.
package webcluster

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/workload"
)

// Request content classes used for content-aware distribution: the
// balancer can keep CPU-heavy dynamic requests away from servers with
// hot CPUs (Section 4.3's two-stage policy).
const (
	ClassDynamic = "dynamic"
	ClassStatic  = "static"
)

// Config sets the request cost model.
type Config struct {
	// DynamicCPU is the CPU demand of a dynamic (CGI) request;
	// default 25ms, the paper's script.
	DynamicCPU time.Duration
	// StaticCPU is the CPU demand of a static request; default 2ms.
	StaticCPU time.Duration
	// StaticDisk is the disk demand of a static request; default 8ms.
	StaticDisk time.Duration
	// QueueCap bounds each server's outstanding requests (in service +
	// queued); beyond it new assignments are refused. Default 200.
	QueueCap int
	// SlotsPerSecond is the number of service sub-slots per tick.
	// Requests are assigned in their arrival sub-slot and connections
	// release at sub-slot boundaries, so concurrent-connection counts
	// (which Freon caps) reflect real in-flight concurrency rather
	// than whole-second batches. Default 10 (100 ms slots).
	SlotsPerSecond int
}

func (c Config) withDefaults() Config {
	if c.DynamicCPU <= 0 {
		c.DynamicCPU = 25 * time.Millisecond
	}
	if c.StaticCPU <= 0 {
		c.StaticCPU = 2 * time.Millisecond
	}
	if c.StaticDisk <= 0 {
		c.StaticDisk = 8 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 200
	}
	if c.SlotsPerSecond <= 0 {
		c.SlotsPerSecond = 10
	}
	return c
}

// MeanCPUPerRequest returns the average CPU seconds one request costs
// under the given dynamic-content share; experiment setup uses it to
// size arrival rates for a target utilization.
func (c Config) MeanCPUPerRequest(dynamicShare float64) float64 {
	c = c.withDefaults()
	return dynamicShare*c.DynamicCPU.Seconds() + (1-dynamicShare)*c.StaticCPU.Seconds()
}

type pending struct {
	cpuLeft float64 // seconds of CPU work remaining
	disk    float64 // seconds of disk work, queued on completion
	dynamic bool
}

type server struct {
	name  string
	on    bool
	speed float64 // service-rate factor (1 = nominal); DVFS emulation
	// queue[head:] is the FIFO of outstanding requests. Completions
	// advance head; a push that finds the slice full slides the live
	// entries back to the front, so steady state reuses one array.
	queue []pending
	head  int
	disk  float64 // disk backlog, seconds

	lastCPU  units.Fraction
	lastDisk units.Fraction

	// Per-tick state, reset at the start of every TickSecond.
	tick     ServerTick
	busyCPU  float64
	busyDisk float64
}

// conns is the server's outstanding request count.
func (s *server) conns() int { return len(s.queue) - s.head }

func (s *server) push(p pending) {
	if len(s.queue) == cap(s.queue) && s.head > 0 {
		n := copy(s.queue, s.queue[s.head:])
		s.queue = s.queue[:n]
		s.head = 0
	}
	s.queue = append(s.queue, p)
}

func (s *server) pop() {
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	}
}

// ServerTick is one server's activity during a tick.
type ServerTick struct {
	CPUUtil   units.Fraction
	DiskUtil  units.Fraction
	Assigned  int
	Completed int
	// CompletedDynamic counts the dynamic share of Completed; a
	// two-tier composition turns these into backend jobs.
	CompletedDynamic int
	Dropped          int
	Conns            int // outstanding requests at end of tick
}

// Tick is one emulated second of cluster activity.
type Tick struct {
	Arrived   int
	Dropped   int
	Completed int
	PerServer map[string]ServerTick
}

// Totals accumulates over a whole run.
type Totals struct {
	Arrived   uint64
	Completed uint64
	Dropped   uint64
}

// DropRate returns the dropped share of arrived requests.
func (t Totals) DropRate() float64 {
	if t.Arrived == 0 {
		return 0
	}
	return float64(t.Dropped) / float64(t.Arrived)
}

// Cluster is the emulated web cluster.
type Cluster struct {
	cfg    Config
	bal    *lvs.Balancer
	byName map[string]*server
	// servers is registration order, the order every tick serves in.
	servers []*server
	totals  Totals
}

// New builds a cluster over the given balancer, registering every
// machine with weight 1.
func New(bal *lvs.Balancer, machines []string, cfg Config) (*Cluster, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("webcluster: no machines")
	}
	c := &Cluster{cfg: cfg.withDefaults(), bal: bal, byName: map[string]*server{}}
	for _, m := range machines {
		if _, dup := c.byName[m]; dup {
			return nil, fmt.Errorf("webcluster: duplicate machine %q", m)
		}
		if err := bal.AddServer(m, 1); err != nil {
			return nil, err
		}
		s := &server{name: m, on: true, speed: 1}
		c.byName[m] = s
		c.servers = append(c.servers, s)
	}
	return c, nil
}

func (c *Cluster) server(name string) (*server, error) {
	s, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("webcluster: unknown machine %q", name)
	}
	return s, nil
}

// Balancer returns the underlying balancer (Freon's control surface).
func (c *Cluster) Balancer() *lvs.Balancer { return c.bal }

// Machines returns the machine names in registration order.
func (c *Cluster) Machines() []string {
	names := make([]string, len(c.servers))
	for i, s := range c.servers {
		names[i] = s.name
	}
	return names
}

// Conns returns a server's outstanding request count.
func (c *Cluster) Conns(name string) (int, error) {
	s, err := c.server(name)
	if err != nil {
		return 0, err
	}
	return s.conns(), nil
}

// On reports whether a server is powered.
func (c *Cluster) On(name string) (bool, error) {
	s, err := c.server(name)
	if err != nil {
		return false, err
	}
	return s.on, nil
}

// SetSpeed scales a server's CPU service rate, emulating local
// voltage/frequency scaling (Section 4.3's comparison point): a server
// at speed 0.5 needs twice the CPU time per request. Speed must be in
// (0, 1].
func (c *Cluster) SetSpeed(name string, speed float64) error {
	s, err := c.server(name)
	if err != nil {
		return err
	}
	if speed <= 0 || speed > 1 {
		return fmt.Errorf("webcluster: speed %v outside (0,1]", speed)
	}
	s.speed = speed
	return nil
}

// Speed returns a server's current service-rate factor.
func (c *Cluster) Speed(name string) (float64, error) {
	s, err := c.server(name)
	if err != nil {
		return 0, err
	}
	return s.speed, nil
}

// SetPower turns a server on or off. Turning a server off drops its
// outstanding requests (Freon-EC avoids this by quiescing and draining
// first; the traditional red-line policy does not).
func (c *Cluster) SetPower(name string, on bool) error {
	s, err := c.server(name)
	if err != nil {
		return err
	}
	if s.on == on {
		return nil
	}
	s.on = on
	if !on {
		for range s.conns() {
			_ = c.bal.Done(name)
			c.totals.Dropped++
		}
		s.queue, s.head = s.queue[:0], 0
		s.disk = 0
		s.lastCPU, s.lastDisk = 0, 0
	}
	return nil
}

// Utilizations returns a server's utilizations from the most recent
// tick, in the shape monitord reports to the solver.
func (c *Cluster) Utilizations(name string) (map[model.UtilSource]units.Fraction, error) {
	s, err := c.server(name)
	if err != nil {
		return nil, err
	}
	return map[model.UtilSource]units.Fraction{
		model.UtilCPU:  s.lastCPU,
		model.UtilDisk: s.lastDisk,
	}, nil
}

// Totals returns the run's cumulative counts.
func (c *Cluster) Totals() Totals { return c.totals }

// TickSecond advances the cluster by one second, split into
// SlotsPerSecond service sub-slots: each arrival is assigned through
// the balancer in its arrival sub-slot, and every powered server then
// executes that slot's share of CPU and disk service, releasing
// completed connections at the slot boundary.
func (c *Cluster) TickSecond(arrivals []workload.Request) Tick {
	var tick Tick
	for _, s := range c.servers {
		s.tick = ServerTick{}
		s.busyCPU, s.busyDisk = 0, 0
	}

	slots := c.cfg.SlotsPerSecond
	slotDur := 1.0 / float64(slots)
	slotOf := func(at time.Duration) int {
		frac := float64(at%time.Second) / float64(time.Second)
		s := int(frac * float64(slots))
		if s >= slots {
			s = slots - 1
		}
		return s
	}
	static := pending{cpuLeft: c.cfg.StaticCPU.Seconds(), disk: c.cfg.StaticDisk.Seconds()}
	dynamic := pending{cpuLeft: c.cfg.DynamicCPU.Seconds(), dynamic: true}

	idx := 0
	for slot := 0; slot < slots; slot++ {
		// Assign this sub-slot's arrivals.
		for idx < len(arrivals) && slotOf(arrivals[idx].At) <= slot {
			req := arrivals[idx]
			idx++
			tick.Arrived++
			c.totals.Arrived++
			class, p := ClassStatic, static
			if req.Dynamic {
				class, p = ClassDynamic, dynamic
			}
			name, err := c.bal.AssignClass(class)
			if err != nil {
				tick.Dropped++
				c.totals.Dropped++
				continue
			}
			s := c.byName[name]
			if !s.on || s.conns() >= c.cfg.QueueCap {
				// Powered-off servers should be quiesced or
				// zero-weighted; if one is still picked, or the queue
				// is full, refuse.
				_ = c.bal.Done(name)
				tick.Dropped++
				c.totals.Dropped++
				s.tick.Dropped++
				continue
			}
			s.push(p)
			s.tick.Assigned++
		}

		// Serve one sub-slot on every powered server.
		for _, s := range c.servers {
			if !s.on {
				continue
			}
			budget := slotDur * s.speed
			for s.conns() > 0 && budget > 0 {
				head := &s.queue[s.head]
				if head.cpuLeft <= budget {
					budget -= head.cpuLeft
					s.disk += head.disk
					if head.dynamic {
						s.tick.CompletedDynamic++
					}
					s.pop()
					s.tick.Completed++
					c.totals.Completed++
					tick.Completed++
					_ = c.bal.Done(s.name)
				} else {
					head.cpuLeft -= budget
					budget = 0
				}
			}
			s.busyCPU += (slotDur*s.speed - budget) / s.speed

			diskServed := s.disk
			if diskServed > slotDur {
				diskServed = slotDur
			}
			s.disk -= diskServed
			s.busyDisk += diskServed
		}
	}

	tick.PerServer = make(map[string]ServerTick, len(c.servers))
	for _, s := range c.servers {
		st := &s.tick
		st.CPUUtil = units.Fraction(s.busyCPU).Clamp()
		st.DiskUtil = units.Fraction(s.busyDisk).Clamp()
		s.lastCPU, s.lastDisk = st.CPUUtil, st.DiskUtil
		st.Conns = s.conns()
		tick.PerServer[s.name] = *st
	}
	return tick
}
