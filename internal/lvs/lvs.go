// Package lvs implements the load-balancer substrate Freon drives: a
// weighted least-connections request scheduler in the style of the
// Linux Virtual Server [Zhang 2000], the balancer the paper used.
// Requests go to the eligible server with the smallest ratio of active
// connections to weight; Freon manipulates weights and per-server
// connection limits to move load away from hot servers ("remote
// throttling"), and Freon-EC quiesces and drains servers before
// turning them off.
package lvs

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrNoServer is returned by Assign when no server can take the
// request (all quiesced, zero-weighted, or at their connection caps).
// The caller counts these as dropped requests.
var ErrNoServer = errors.New("lvs: no eligible server")

type serverState struct {
	name     string
	weight   float64
	connCap  int // 0 = unlimited
	active   int
	peak     int // high-watermark of active since last TakePeakConns
	quiesced bool
	assigned uint64
	refused  uint64
	// blocked holds request classes this server refuses; Freon's
	// content-aware stage keeps CPU-heavy classes away from servers
	// with hot CPUs.
	blocked map[string]bool
}

// Balancer is a weighted least-connections scheduler. Safe for
// concurrent use.
type Balancer struct {
	mu     sync.Mutex
	byName map[string]*serverState
	// servers is registration order: scheduling scans it and breaks
	// ties toward the earliest-registered server.
	servers []*serverState
}

// New creates an empty balancer.
func New() *Balancer {
	return &Balancer{byName: map[string]*serverState{}}
}

// AddServer registers a server with the given weight (must be > 0).
func (b *Balancer) AddServer(name string, weight float64) error {
	if name == "" {
		return fmt.Errorf("lvs: empty server name")
	}
	if weight <= 0 {
		return fmt.Errorf("lvs: server %q needs positive weight, got %v", name, weight)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.byName[name]; dup {
		return fmt.Errorf("lvs: server %q already registered", name)
	}
	s := &serverState{name: name, weight: weight}
	b.byName[name] = s
	b.servers = append(b.servers, s)
	return nil
}

// RemoveServer unregisters a server entirely.
func (b *Balancer) RemoveServer(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return err
	}
	delete(b.byName, name)
	b.servers = slices.DeleteFunc(b.servers, func(o *serverState) bool { return o == s })
	return nil
}

func (b *Balancer) server(name string) (*serverState, error) {
	s, ok := b.byName[name]
	if !ok {
		return nil, fmt.Errorf("lvs: unknown server %q", name)
	}
	return s, nil
}

// SetWeight changes a server's scheduling weight. Weight 0 stops new
// assignments (LVS semantics) without dropping existing connections.
func (b *Balancer) SetWeight(name string, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("lvs: negative weight %v", weight)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return err
	}
	s.weight = weight
	return nil
}

// Weight returns a server's current weight.
func (b *Balancer) Weight(name string) (float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return 0, err
	}
	return s.weight, nil
}

// SetConnLimit caps a server's concurrent connections (0 removes the
// cap). Freon sets this to the server's recent average so rising
// offered load cannot defeat a weight reduction.
func (b *Balancer) SetConnLimit(name string, limit int) error {
	if limit < 0 {
		return fmt.Errorf("lvs: negative connection limit %d", limit)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return err
	}
	s.connCap = limit
	return nil
}

// ConnLimit returns a server's connection cap (0 = unlimited).
func (b *Balancer) ConnLimit(name string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return 0, err
	}
	return s.connCap, nil
}

// Quiesce stops new assignments to a server while existing
// connections drain (the first step of turning a server off).
func (b *Balancer) Quiesce(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return err
	}
	s.quiesced = true
	return nil
}

// Resume re-enables assignments to a quiesced server.
func (b *Balancer) Resume(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return err
	}
	s.quiesced = false
	return nil
}

// Quiesced reports whether a server is quiesced.
func (b *Balancer) Quiesced(name string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return false, err
	}
	return s.quiesced, nil
}

// ActiveConns returns a server's current connection count.
func (b *Balancer) ActiveConns(name string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return 0, err
	}
	return s.active, nil
}

// Assigned returns the total requests ever assigned to a server.
func (b *Balancer) Assigned(name string) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return 0, err
	}
	return s.assigned, nil
}

// Servers returns the registered server names in registration order.
func (b *Balancer) Servers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, len(b.servers))
	for i, s := range b.servers {
		names[i] = s.name
	}
	return names
}

// Assign picks the eligible server with the smallest active/weight
// ratio, increments its connection count, and returns its name. LVS's
// weighted least-connections: "LVS directs requests to the server i
// with the lowest ratio of active connections and weight".
func (b *Balancer) Assign() (string, error) { return b.AssignClass("") }

// AssignClass assigns a request of the given content class (e.g.
// "dynamic" or "static"), skipping servers that block the class. The
// empty class is never blocked. This is the content-aware distribution
// Section 4.3 calls for; plain Assign is AssignClass("").
func (b *Balancer) AssignClass(class string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var best *serverState
	var bestRatio float64
	for _, s := range b.servers {
		if s.quiesced || s.weight <= 0 {
			continue
		}
		if class != "" && len(s.blocked) > 0 && s.blocked[class] {
			continue
		}
		if s.connCap > 0 && s.active >= s.connCap {
			s.refused++
			continue
		}
		ratio := float64(s.active) / s.weight
		if best == nil || ratio < bestRatio {
			best, bestRatio = s, ratio
		}
	}
	if best == nil {
		return "", ErrNoServer
	}
	best.active++
	best.assigned++
	if best.active > best.peak {
		best.peak = best.active
	}
	return best.name, nil
}

// SetClassBlocked marks a request class as refused (or accepted again)
// by a server.
func (b *Balancer) SetClassBlocked(name, class string, blocked bool) error {
	if class == "" {
		return fmt.Errorf("lvs: empty class")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return err
	}
	if s.blocked == nil {
		s.blocked = map[string]bool{}
	}
	if blocked {
		s.blocked[class] = true
	} else {
		delete(s.blocked, class)
	}
	return nil
}

// ClassBlocked reports whether a server refuses a class.
func (b *Balancer) ClassBlocked(name, class string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return false, err
	}
	return s.blocked[class], nil
}

// TakePeakConns returns the highest concurrent-connection count a
// server reached since the previous call, and resets the watermark.
// Freon's admd samples this to cap hot servers at their recent
// concurrency (the paper's "average number of concurrent requests over
// the last time interval", measured where it peaks rather than at the
// idle instants between batches).
func (b *Balancer) TakePeakConns(name string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return 0, err
	}
	p := s.peak
	s.peak = s.active
	return p, nil
}

// Done releases one connection on a server.
func (b *Balancer) Done(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.server(name)
	if err != nil {
		return err
	}
	if s.active <= 0 {
		return fmt.Errorf("lvs: server %q has no active connections", name)
	}
	s.active--
	return nil
}

// TotalWeight sums the weights of non-quiesced servers; Freon's weight
// arithmetic accounts "for the weights of all servers".
func (b *Balancer) TotalWeight() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sum float64
	for _, s := range b.servers {
		if !s.quiesced {
			sum += s.weight
		}
	}
	return sum
}
