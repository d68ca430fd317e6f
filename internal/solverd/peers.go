package solverd

// This file is the daemon half of horizontal sharding: each solverd of
// a partitioned cluster steps only its region and swaps boundary
// exhaust temperatures with its peers over UDP after every tick. The
// exchange is a lockstep barrier — before stepping tick T a daemon
// waits until every boundary peer's tick T-1 exhausts have arrived and
// been imported — which is exactly the dependency the thermal model
// already has (mixed inlets read the PREVIOUS tick's exhausts), so the
// partitioned datacenter stays bit-identical to one big solver.
//
// Datagrams are staged, never applied on arrival: a fast peer may
// publish tick T while this daemon still needs T-1, and overwriting
// the T-1 exhausts early would corrupt the current step. Records are
// parked per (peer, tick) and only installed by the barrier, and the
// staging window is bounded to two outstanding ticks so a confused or
// malicious sender cannot grow memory.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/wire"
)

// boundaryDeadline bounds how long the stepping ticker waits (in real
// time) for a peer's boundary exhausts before giving up on the tick.
// Missing the deadline forfeits bit-identity — the step proceeds with
// the freshest imported state — and is counted in Stats.BoundaryMissed;
// a healthy lockstep run never gets near it.
const boundaryDeadline = 30 * time.Second

// peerLink is one boundary peer: where to send our exports, which
// global machine indices we expect from it, and the per-tick staging
// area for records that arrived ahead of the barrier.
type peerLink struct {
	region int
	addr   *net.UDPAddr
	out    []int32 // our machines whose exhausts the peer needs
	in     []int32 // peer machines whose exhausts we need
	staged map[uint64]*stagedBoundary
	// applied is the last tick whose records were consumed by the
	// barrier; staging accepts only (applied, applied+2].
	applied uint64
}

// stagedBoundary accumulates one tick's records from one peer, across
// however many chunked datagrams they arrived in.
type stagedBoundary struct {
	idx   []int32
	temps []float64
}

// boundaryState is the shared staging table, guarded by one mutex; the
// Serve goroutine fills it and the stepping ticker drains it.
type boundaryState struct {
	mu     sync.Mutex
	cond   *sync.Cond
	links  []*peerLink
	region map[uint32]*peerLink
	closed bool
}

// SetPeers wires the daemon into a partitioned run: addrs maps every
// boundary peer's region index to its solverd UDP address. It must be
// called on a solver built with Config.Regions, before StartTicker and
// Serve. Regions that share no recirculation edge with this one need no
// address — there is nothing to exchange.
func (s *Server) SetPeers(addrs map[int]string) error {
	_, total := s.sol.Region()
	if total == 0 {
		return errors.New("solverd: SetPeers on an unpartitioned solver")
	}
	b := &boundaryState{region: map[uint32]*peerLink{}}
	b.cond = sync.NewCond(&b.mu)
	maxOut := 0
	for _, p := range s.sol.BoundaryPeers() {
		addr, ok := addrs[p]
		if !ok {
			return fmt.Errorf("solverd: no address for boundary peer region %d", p)
		}
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("solverd: peer region %d: %w", p, err)
		}
		l := &peerLink{
			region: p,
			addr:   ua,
			out:    s.sol.BoundaryOutTo(p),
			in:     s.sol.BoundaryInFrom(p),
			staged: map[uint64]*stagedBoundary{},
		}
		if len(l.out) > maxOut {
			maxOut = len(l.out)
		}
		b.links = append(b.links, l)
		b.region[uint32(p)] = l
	}
	s.peers = b
	s.exportBuf = make([]float64, maxOut)
	return nil
}

// publishBoundary sends this region's boundary exhausts after stepping
// tick, chunked at MaxBoundaryRecords per datagram. Sends are
// best-effort UDP; a lost chunk surfaces as the peer's BoundaryMissed.
// Exchanges carry no trace context on purpose: they are clockwork, one
// per tick per peer, and tracing them would make a sharded run's span
// set differ from the single-solver golden.
func (s *Server) publishBoundary(tick uint64) {
	region, _ := s.sol.Region()
	for _, l := range s.peers.links {
		if len(l.out) == 0 {
			continue
		}
		n := s.sol.ExportBoundary(l.region, s.exportBuf)
		for off := 0; off < n; off += wire.MaxBoundaryRecords {
			end := off + wire.MaxBoundaryRecords
			if end > n {
				end = n
			}
			recs := make([]wire.BoundaryRecord, end-off)
			for i := range recs {
				recs[i] = wire.BoundaryRecord{
					Machine: uint32(l.out[off+i]),
					Temp:    units.Celsius(s.exportBuf[off+i]),
				}
			}
			buf, err := wire.MarshalBoundaryExchange(&wire.BoundaryExchange{
				Region:  uint32(region),
				Tick:    tick,
				Records: recs,
			})
			if err != nil {
				continue
			}
			_, _ = s.conn.WriteToUDP(buf, l.addr)
			s.stats.BoundaryOut.Add(1)
		}
	}
}

// handleBoundary stages an incoming exchange datagram. Records are NOT
// applied here — see the file comment — only parked for awaitBoundary,
// which wakes on the broadcast.
func (s *Server) handleBoundary(buf []byte) {
	if s.peers == nil {
		s.stats.Malformed.Add(1)
		return
	}
	be, err := wire.UnmarshalBoundaryExchange(buf)
	if err != nil {
		s.stats.Malformed.Add(1)
		return
	}
	b := s.peers
	b.mu.Lock()
	l := b.region[be.Region]
	// Reject unknown senders, ticks already consumed, and ticks more
	// than the two-deep lockstep window ahead.
	if l == nil || len(l.in) == 0 || be.Tick <= l.applied || be.Tick > l.applied+2 {
		b.mu.Unlock()
		s.stats.Malformed.Add(1)
		return
	}
	st := l.staged[be.Tick]
	if st == nil {
		st = &stagedBoundary{}
		l.staged[be.Tick] = st
	}
	if len(st.idx)+len(be.Records) > len(l.in) {
		// More records than the boundary holds: a duplicated or bogus
		// chunk. Drop the datagram rather than grow the stage.
		b.mu.Unlock()
		s.stats.Malformed.Add(1)
		return
	}
	for _, r := range be.Records {
		st.idx = append(st.idx, int32(r.Machine))
		st.temps = append(st.temps, float64(r.Temp))
	}
	b.mu.Unlock()
	s.stats.BoundaryIn.Add(1)
	b.cond.Broadcast()
}

// awaitBoundary blocks until every boundary peer's exhausts for tick
// have been staged, then imports them into the solver — the lockstep
// barrier run by the stepping ticker before tick+1 is stepped. It
// returns false only when the daemon is closing; a peer that stays
// silent past boundaryDeadline is skipped and counted instead, so one
// dead shard degrades accuracy rather than freezing the cluster.
func (s *Server) awaitBoundary(tick uint64) bool {
	b := s.peers
	deadline := false
	timer := time.AfterFunc(boundaryDeadline, func() {
		b.mu.Lock()
		deadline = true
		b.mu.Unlock()
		b.cond.Broadcast()
	})
	defer timer.Stop()

	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.links {
		if len(l.in) == 0 {
			continue
		}
		for {
			if b.closed {
				return false
			}
			st := l.staged[tick]
			if st != nil && len(st.idx) == len(l.in) {
				break
			}
			if deadline {
				break
			}
			b.cond.Wait()
		}
		st := l.staged[tick]
		delete(l.staged, tick)
		l.applied = tick
		if st == nil || len(st.idx) != len(l.in) {
			s.stats.BoundaryMissed.Add(1)
			continue
		}
		// Holding b.mu across the import is safe: the solver lock is
		// only ever taken after b.mu, never the other way around.
		if err := s.sol.ImportBoundaryTemps(l.region, st.idx, st.temps); err != nil {
			s.stats.Malformed.Add(1)
		} else if s.rec != nil {
			s.rec.RecordBoundary(tick, l.region, st.idx, st.temps)
		}
	}
	return true
}

// closeBoundary unblocks a ticker parked in awaitBoundary so Close
// cannot deadlock on a missing peer.
func (s *Server) closeBoundary() {
	if s.peers == nil {
		return
	}
	s.peers.mu.Lock()
	s.peers.closed = true
	s.peers.mu.Unlock()
	s.peers.cond.Broadcast()
}

// handleUtilBatch applies a batched utilization datagram: each report
// runs through the same per-machine sequence dedupe as a standalone
// update, so mixing batched and unbatched monitords is safe.
func (s *Server) handleUtilBatch(buf []byte) {
	b, err := wire.UnmarshalUtilBatch(buf)
	if err != nil {
		s.stats.Malformed.Add(1)
		return
	}
	for i := range b.Reports {
		r := &b.Reports[i]
		s.applyUtil(r.Machine, r.Seq, r.Entries, b.Trace)
	}
	s.stats.UtilBatches.Add(1)
}
