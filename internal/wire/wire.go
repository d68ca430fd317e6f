// Package wire defines the UDP datagram formats spoken between the
// Mercury solver daemon, the monitoring daemons, the sensor library,
// and the fiddle tool. Utilization updates are padded to exactly 128
// bytes, matching the paper's "128-byte UDP messages"; replies are at
// most 512 bytes.
//
// All multi-byte integers are big-endian. Strings are length-prefixed
// with one byte (maximum 255 bytes). Floats travel as IEEE-754 bits.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// Message type bytes.
const (
	MsgUtilUpdate  = 0x01
	MsgSensorRead  = 0x02
	MsgSensorReply = 0x03
	MsgFiddleOp    = 0x04
	MsgFiddleReply = 0x05
	MsgListNodes   = 0x06
	MsgListReply   = 0x07
	// MsgBoundaryExchange carries one region's boundary exhaust
	// temperatures to a peer solver daemon of a horizontally partitioned
	// cluster (batch.go).
	MsgBoundaryExchange = 0x08
	// MsgUtilBatch carries many machines' utilization reports in one
	// datagram (batch.go).
	MsgUtilBatch = 0x09
)

// Version is the baseline protocol version byte leading every
// datagram. VersionTrace marks the extended encoding that carries a
// causal trace context: utilization updates place it in the spare
// padding bytes of the fixed 128-byte datagram, sensor reads and
// replies append it after the version-1 payload. A message without a
// trace context is always emitted as version 1, byte-identical to the
// pre-trace protocol, so old and new daemons interoperate: a version-1
// receiver simply never learns about traces.
const (
	Version      = 0x01
	VersionTrace = 0x02
)

// UtilUpdateSize is the fixed size of a utilization update datagram.
const UtilUpdateSize = 128

// UtilTraceOffset is where the version-2 trace trailer begins inside
// a utilization update: a flag byte (TraceFlag) followed by the trace
// and span IDs as big-endian u64s, occupying the last 17 of the 128
// bytes. Version-2 updates must fit their payload in the first 111
// bytes, and the slack between payload end and the trailer must be
// zero — anything else is rejected as malformed.
const UtilTraceOffset = UtilUpdateSize - 17

// TraceFlag is the marker byte opening a utilization update's trace
// trailer.
const TraceFlag = 0x01

// MaxReplySize bounds every reply datagram.
const MaxReplySize = 512

// Status codes carried in replies.
const (
	StatusOK      = 0x00
	StatusUnknown = 0x01 // unknown machine/node/source
	StatusBadOp   = 0x02 // malformed or rejected operation
)

// Common decode errors.
var (
	ErrShort       = errors.New("wire: datagram too short")
	ErrBadSize     = errors.New("wire: utilization update must be exactly 128 bytes")
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrBadType     = errors.New("wire: unexpected message type")
	ErrStringSize  = errors.New("wire: string exceeds 255 bytes")
	ErrTooManyUtil = errors.New("wire: too many utilization entries")
	ErrBadTrace    = errors.New("wire: malformed trace context")
	// ErrEmptyBoundary rejects a boundary exchange with no records: the
	// message exists only to carry temperatures, so an empty one is
	// malformed, not a no-op.
	ErrEmptyBoundary = errors.New("wire: boundary exchange carries no records")
	// ErrTooManyBoundary bounds one exchange datagram; larger boundaries
	// are chunked by the sender (MaxBoundaryRecords).
	ErrTooManyBoundary = errors.New("wire: too many boundary records")
	// ErrEmptyBatch rejects a utilization batch reporting no machines.
	ErrEmptyBatch = errors.New("wire: utilization batch carries no machines")
	// ErrTooManyBatch bounds the machines of one batch datagram
	// (MaxBatchMachines).
	ErrTooManyBatch = errors.New("wire: too many machines in utilization batch")
	// ErrTrailingBytes rejects datagrams with bytes after a complete
	// payload; the fixed-width messages tolerate no slack.
	ErrTrailingBytes = errors.New("wire: trailing bytes after payload")
)

// TraceContext is a causal trace reference carried across the wire
// (see internal/causal). A zero context means "untraced" and selects
// the version-1 encoding.
type TraceContext struct {
	Trace uint64
	Span  uint64
}

// Zero reports whether the context carries no trace.
func (c TraceContext) Zero() bool { return c == TraceContext{} }

// UtilEntry is one (source, utilization) pair of an update.
type UtilEntry struct {
	Source model.UtilSource
	Util   units.Fraction
}

// UtilUpdate is the periodic report monitord sends to the solver: the
// monitored machine's component utilizations for the last interval.
// A non-zero Trace selects the version-2 encoding, which carries the
// context in the datagram's spare padding bytes (see UtilTraceOffset).
type UtilUpdate struct {
	Machine string
	Seq     uint32
	Entries []UtilEntry
	Trace   TraceContext
}

type encoder struct {
	buf []byte
	err error
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) u32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

func (e *encoder) u64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

func (e *encoder) f64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) str(s string) {
	if len(s) > 255 {
		e.err = ErrStringSize
		return
	}
	e.byte(byte(len(s)))
	e.buf = append(e.buf, s...)
}

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, ErrShort
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *decoder) f64() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrShort
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// bytes decodes a length-prefixed string without copying it out of the
// datagram.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.byte()
	if err != nil {
		return nil, err
	}
	if d.pos+int(n) > len(d.buf) {
		return nil, ErrShort
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

func header(typ byte) *encoder {
	return headerVer(Version, typ)
}

func headerVer(ver, typ byte) *encoder {
	e := &encoder{}
	e.byte(ver)
	e.byte(typ)
	return e
}

// traceHeader opens a datagram at version 1 or 2 depending on whether
// a trace context rides along; untraced messages stay byte-identical
// to the pre-trace protocol.
func traceHeader(typ byte, tc TraceContext) *encoder {
	if tc.Zero() {
		return headerVer(Version, typ)
	}
	return headerVer(VersionTrace, typ)
}

func checkHeader(buf []byte, typ byte) (decoder, error) {
	d, v, err := checkHeaderVer(buf, typ)
	if err != nil {
		return d, err
	}
	if v != Version {
		return d, ErrBadVersion
	}
	return d, nil
}

// checkHeaderVer accepts version 1 and 2 datagrams and reports which
// was seen; messages that never grew a version-2 form keep using
// checkHeader, which still rejects everything but version 1. The
// decoder is returned by value so decoding stays on the stack.
func checkHeaderVer(buf []byte, typ byte) (decoder, byte, error) {
	d := decoder{buf: buf}
	v, err := d.byte()
	if err != nil {
		return d, 0, err
	}
	if v != Version && v != VersionTrace {
		return d, 0, ErrBadVersion
	}
	t, err := d.byte()
	if err != nil {
		return d, 0, err
	}
	if t != typ {
		return d, 0, ErrBadType
	}
	return d, v, nil
}

// trace encodes the 16-byte trace context (trace ID then span ID).
func (e *encoder) trace(tc TraceContext) {
	e.u64(tc.Trace)
	e.u64(tc.Span)
}

// trace decodes a trace context and rejects a zero trace ID: version-2
// datagrams exist only to carry a trace, so an absent one is
// malformed, not empty.
func (d *decoder) trace() (TraceContext, error) {
	var tc TraceContext
	var err error
	if tc.Trace, err = d.u64(); err != nil {
		return tc, err
	}
	if tc.Span, err = d.u64(); err != nil {
		return tc, err
	}
	if tc.Trace == 0 {
		return tc, ErrBadTrace
	}
	return tc, nil
}

// MarshalUtilUpdate encodes an update into exactly UtilUpdateSize
// bytes. Entries are sorted by source so encoding is deterministic.
func MarshalUtilUpdate(u *UtilUpdate) ([]byte, error) {
	buf, err := AppendUtilUpdate(make([]byte, 0, UtilUpdateSize), u)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendUtilUpdate appends u's UtilUpdateSize-byte datagram to dst and
// returns the extended slice; on error dst is returned unchanged. The
// entries are sorted by source into a stack copy (u is not modified),
// so with enough capacity in dst encoding allocates nothing.
func AppendUtilUpdate(dst []byte, u *UtilUpdate) ([]byte, error) {
	if len(u.Entries) > 8 {
		return dst, ErrTooManyUtil
	}
	if len(u.Machine) > 255 {
		return dst, ErrStringSize
	}
	// Stable insertion sort: equal sources keep their input order.
	var sorted [8]UtilEntry
	entries := sorted[:len(u.Entries)]
	copy(entries, u.Entries)
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Source < entries[j-1].Source; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	for _, en := range entries {
		if len(en.Source) > 255 {
			return dst, ErrStringSize
		}
	}

	start := len(dst)
	ver := byte(Version)
	if !u.Trace.Zero() {
		ver = VersionTrace
	}
	dst = append(dst, ver, MsgUtilUpdate, byte(len(u.Machine)))
	dst = append(dst, u.Machine...)
	dst = binary.BigEndian.AppendUint32(dst, u.Seq)
	dst = append(dst, byte(len(entries)))
	for _, en := range entries {
		dst = append(dst, byte(len(en.Source)))
		dst = append(dst, en.Source...)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(en.Util.Clamp())))
	}
	limit := UtilUpdateSize
	if !u.Trace.Zero() {
		limit = UtilTraceOffset
	}
	if n := len(dst) - start; n > limit {
		return dst[:start], fmt.Errorf("wire: utilization update needs %d bytes, limit %d", n, limit)
	}
	var pad [UtilUpdateSize]byte
	dst = append(dst, pad[:UtilUpdateSize-(len(dst)-start)]...)
	if !u.Trace.Zero() {
		tr := dst[start+UtilTraceOffset:]
		tr[0] = TraceFlag
		binary.BigEndian.PutUint64(tr[1:], u.Trace.Trace)
		binary.BigEndian.PutUint64(tr[9:], u.Trace.Span)
	}
	return dst, nil
}

// UnmarshalUtilUpdate decodes an update datagram. Compliant senders
// always pad to exactly UtilUpdateSize, so any other length is
// rejected outright.
func UnmarshalUtilUpdate(buf []byte) (*UtilUpdate, error) {
	u := &UtilUpdate{}
	if err := DecodeUtilUpdate(buf, u); err != nil {
		return nil, err
	}
	return u, nil
}

// DecodeUtilUpdate decodes an update datagram into u, overwriting every
// field and reusing u.Entries' storage, so a receiver can decode each
// datagram into one long-lived struct. Known source names are interned
// and u.Machine is kept when the name is unchanged; in steady state the
// only allocation is a new machine name. On error u's contents are
// unspecified.
func DecodeUtilUpdate(buf []byte, u *UtilUpdate) error {
	if len(buf) != UtilUpdateSize {
		return ErrBadSize
	}
	d, ver, err := checkHeaderVer(buf, MsgUtilUpdate)
	if err != nil {
		return err
	}
	machine, err := d.bytes()
	if err != nil {
		return err
	}
	if u.Machine != string(machine) {
		u.Machine = string(machine)
	}
	if u.Seq, err = d.u32(); err != nil {
		return err
	}
	n, err := d.byte()
	if err != nil {
		return err
	}
	if n > 8 {
		return ErrTooManyUtil
	}
	u.Entries = u.Entries[:0]
	u.Trace = TraceContext{}
	for i := 0; i < int(n); i++ {
		src, err := d.bytes()
		if err != nil {
			return err
		}
		v, err := d.f64()
		if err != nil {
			return err
		}
		u.Entries = append(u.Entries, UtilEntry{
			Source: internSource(src),
			Util:   units.Fraction(v).Clamp(),
		})
	}
	if ver == VersionTrace {
		// The payload must leave the trailer bytes alone, every spare
		// byte between payload and trailer must still be zero padding,
		// and the trailer must open with the flag byte. Rejecting the
		// malformed cases here keeps a corrupted or truncated-payload
		// datagram from being silently read as traced.
		if d.pos > UtilTraceOffset {
			return ErrBadTrace
		}
		for _, b := range buf[d.pos:UtilTraceOffset] {
			if b != 0 {
				return ErrBadTrace
			}
		}
		if buf[UtilTraceOffset] != TraceFlag {
			return ErrBadTrace
		}
		td := decoder{buf: buf, pos: UtilTraceOffset + 1}
		if u.Trace, err = td.trace(); err != nil {
			return err
		}
	}
	return nil
}

// internSource returns the model's constant for a known source name,
// so decoding the common streams allocates no string.
func internSource(b []byte) model.UtilSource {
	switch string(b) {
	case string(model.UtilCPU):
		return model.UtilCPU
	case string(model.UtilDisk):
		return model.UtilDisk
	case string(model.UtilNet):
		return model.UtilNet
	}
	return model.UtilSource(b)
}

// SensorRead asks the solver for one node's emulated temperature. A
// non-zero Trace selects the version-2 encoding, which appends the
// context after the node name; the reply echoes it back.
type SensorRead struct {
	Machine string
	Node    string
	Trace   TraceContext
}

// MarshalSensorRead encodes a read request.
func MarshalSensorRead(r *SensorRead) ([]byte, error) {
	e := traceHeader(MsgSensorRead, r.Trace)
	e.str(r.Machine)
	e.str(r.Node)
	if !r.Trace.Zero() {
		e.trace(r.Trace)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// UnmarshalSensorRead decodes a read request.
func UnmarshalSensorRead(buf []byte) (*SensorRead, error) {
	d, ver, err := checkHeaderVer(buf, MsgSensorRead)
	if err != nil {
		return nil, err
	}
	r := &SensorRead{}
	if r.Machine, err = d.str(); err != nil {
		return nil, err
	}
	if r.Node, err = d.str(); err != nil {
		return nil, err
	}
	if ver == VersionTrace {
		if r.Trace, err = d.trace(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// SensorReply answers a SensorRead, echoing the request's trace
// context (if any) so a traced exchange is attributable end to end.
type SensorReply struct {
	Status  byte
	Temp    units.Celsius
	Message string // error detail when Status != StatusOK
	Trace   TraceContext
}

// MarshalSensorReply encodes a reply.
func MarshalSensorReply(r *SensorReply) ([]byte, error) {
	e := traceHeader(MsgSensorReply, r.Trace)
	e.byte(r.Status)
	e.f64(float64(r.Temp))
	e.str(r.Message)
	if !r.Trace.Zero() {
		e.trace(r.Trace)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// UnmarshalSensorReply decodes a reply.
func UnmarshalSensorReply(buf []byte) (*SensorReply, error) {
	d, ver, err := checkHeaderVer(buf, MsgSensorReply)
	if err != nil {
		return nil, err
	}
	r := &SensorReply{}
	if r.Status, err = d.byte(); err != nil {
		return nil, err
	}
	v, err := d.f64()
	if err != nil {
		return nil, err
	}
	r.Temp = units.Celsius(v)
	if r.Message, err = d.str(); err != nil {
		return nil, err
	}
	if ver == VersionTrace {
		if r.Trace, err = d.trace(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ListNodes asks the solver which nodes a machine has (or, with an
// empty machine name, which machines exist).
type ListNodes struct {
	Machine string
}

// MarshalListNodes encodes a list request.
func MarshalListNodes(r *ListNodes) ([]byte, error) {
	e := header(MsgListNodes)
	e.str(r.Machine)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// UnmarshalListNodes decodes a list request.
func UnmarshalListNodes(buf []byte) (*ListNodes, error) {
	d, err := checkHeader(buf, MsgListNodes)
	if err != nil {
		return nil, err
	}
	r := &ListNodes{}
	if r.Machine, err = d.str(); err != nil {
		return nil, err
	}
	return r, nil
}

// ListReply answers ListNodes with up to 255 names.
type ListReply struct {
	Status byte
	Names  []string
}

// MarshalListReply encodes a list reply; it fails if the reply would
// exceed MaxReplySize.
func MarshalListReply(r *ListReply) ([]byte, error) {
	e := header(MsgListReply)
	e.byte(r.Status)
	if len(r.Names) > 255 {
		return nil, fmt.Errorf("wire: too many names (%d)", len(r.Names))
	}
	e.byte(byte(len(r.Names)))
	for _, n := range r.Names {
		e.str(n)
	}
	if e.err != nil {
		return nil, e.err
	}
	if len(e.buf) > MaxReplySize {
		return nil, fmt.Errorf("wire: list reply needs %d bytes, limit %d", len(e.buf), MaxReplySize)
	}
	return e.buf, nil
}

// UnmarshalListReply decodes a list reply.
func UnmarshalListReply(buf []byte) (*ListReply, error) {
	d, err := checkHeader(buf, MsgListReply)
	if err != nil {
		return nil, err
	}
	r := &ListReply{}
	if r.Status, err = d.byte(); err != nil {
		return nil, err
	}
	n, err := d.byte()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(n); i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		r.Names = append(r.Names, name)
	}
	return r, nil
}
