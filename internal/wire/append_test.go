package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/units"
)

// legacyMarshalUtilUpdate is the original allocating encoder, kept as
// the oracle AppendUtilUpdate must match byte for byte.
func legacyMarshalUtilUpdate(u *UtilUpdate) ([]byte, error) {
	entries := append([]UtilEntry(nil), u.Entries...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Source < entries[j].Source })
	e := traceHeader(MsgUtilUpdate, u.Trace)
	e.str(u.Machine)
	e.u32(u.Seq)
	if len(entries) > 8 {
		return nil, ErrTooManyUtil
	}
	e.byte(byte(len(entries)))
	for _, en := range entries {
		e.str(string(en.Source))
		e.f64(float64(en.Util.Clamp()))
	}
	if e.err != nil {
		return nil, e.err
	}
	limit := UtilUpdateSize
	if !u.Trace.Zero() {
		limit = UtilTraceOffset
	}
	if len(e.buf) > limit {
		return nil, fmt.Errorf("wire: utilization update needs %d bytes, limit %d", len(e.buf), limit)
	}
	padded := make([]byte, UtilUpdateSize)
	copy(padded, e.buf)
	if !u.Trace.Zero() {
		padded[UtilTraceOffset] = TraceFlag
		binary.BigEndian.PutUint64(padded[UtilTraceOffset+1:], u.Trace.Trace)
		binary.BigEndian.PutUint64(padded[UtilTraceOffset+9:], u.Trace.Span)
	}
	return padded, nil
}

func TestAppendUtilUpdateMatchesLegacy(t *testing.T) {
	tc := TraceContext{Trace: 0xFEEDFACE, Span: 0xBEEF}
	long := string(bytes.Repeat([]byte("x"), 256))
	cases := []*UtilUpdate{
		{Machine: "machine1", Seq: 7},
		{Machine: "machine1", Seq: 7, Entries: []UtilEntry{{model.UtilDisk, 0.25}, {model.UtilCPU, 0.5}}},
		{Machine: "m", Seq: 1 << 31, Entries: []UtilEntry{{model.UtilNet, 2}, {model.UtilCPU, -1}, {model.UtilDisk, units.Fraction(math.NaN())}}},
		// Equal sources keep their input order.
		{Machine: "dup", Seq: 3, Entries: []UtilEntry{{model.UtilCPU, 0.9}, {"aa", 0.1}, {model.UtilCPU, 0.1}, {"aa", 0.7}}},
		{Machine: "eight", Seq: 9, Entries: []UtilEntry{
			{"h", 0.8}, {"g", 0.7}, {"f", 0.6}, {"e", 0.5}, {"d", 0.4}, {"c", 0.3}, {"b", 0.2}, {"a", 0.1}}},
		{Machine: "nine", Entries: make([]UtilEntry, 9)},
		{Machine: long},
		{Machine: "m", Entries: []UtilEntry{{model.UtilSource(long), 0}}},
		// Payload too large for the 128 bytes (v1) or the 111 bytes
		// before the trace trailer (v2).
		{Machine: string(bytes.Repeat([]byte("y"), 100)), Entries: []UtilEntry{{model.UtilCPU, 1}, {model.UtilDisk, 1}}},
		{Machine: string(bytes.Repeat([]byte("z"), 90)), Entries: []UtilEntry{{model.UtilCPU, 1}}},
	}
	for i, c := range cases {
		for _, trace := range []TraceContext{{}, tc} {
			u := *c
			u.Trace = trace
			orig := slices.Clone(u.Entries)
			want, wantErr := legacyMarshalUtilUpdate(&u)
			prefix := []byte("prefix")
			got, err := AppendUtilUpdate(slices.Clone(prefix), &u)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Errorf("case %d trace=%v: err %v, legacy %v", i, !trace.Zero(), err, wantErr)
				continue
			}
			if !bytes.HasPrefix(got, prefix) {
				t.Errorf("case %d: prefix clobbered: %q", i, got)
				continue
			}
			if err == nil && !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("case %d trace=%v:\n got %x\nwant %x", i, !trace.Zero(), got[len(prefix):], want)
			}
			if err != nil && len(got) != len(prefix) {
				t.Errorf("case %d: failed append grew dst to %d bytes", i, len(got))
			}
			if !sameEntries(u.Entries, orig) {
				t.Errorf("case %d: encoding reordered the caller's entries", i)
			}
			if m, err := MarshalUtilUpdate(&u); err == nil && !bytes.Equal(m, want) {
				t.Errorf("case %d: MarshalUtilUpdate differs from the legacy encoder", i)
			}
		}
	}
}

// sameEntries compares entries bit for bit, so NaN utilizations
// compare equal to themselves.
func sameEntries(a, b []UtilEntry) bool {
	return slices.EqualFunc(a, b, func(x, y UtilEntry) bool {
		return x.Source == y.Source && math.Float64bits(float64(x.Util)) == math.Float64bits(float64(y.Util))
	})
}

// TestDecodeUtilUpdateReuse decodes a traced three-entry datagram and
// then an untraced one-entry datagram into the same struct: nothing of
// the first may survive into the second.
func TestDecodeUtilUpdateReuse(t *testing.T) {
	v2, err := MarshalUtilUpdate(&UtilUpdate{
		Machine: "machine1", Seq: 8,
		Entries: []UtilEntry{{model.UtilCPU, 0.5}, {model.UtilDisk, 0.25}, {model.UtilNet, 0.75}},
		Trace:   TraceContext{Trace: 0xFEEDFACE, Span: 0xBEEF},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := MarshalUtilUpdate(&UtilUpdate{Machine: "machine2", Seq: 9, Entries: []UtilEntry{{model.UtilDisk, 0.125}}})
	if err != nil {
		t.Fatal(err)
	}
	var u UtilUpdate
	if err := DecodeUtilUpdate(v2, &u); err != nil {
		t.Fatal(err)
	}
	if u.Trace.Zero() || len(u.Entries) != 3 {
		t.Fatalf("v2 decode = %+v", u)
	}
	if err := DecodeUtilUpdate(v1, &u); err != nil {
		t.Fatal(err)
	}
	want := UtilUpdate{Machine: "machine2", Seq: 9, Entries: []UtilEntry{{model.UtilDisk, 0.125}}}
	if u.Machine != want.Machine || u.Seq != want.Seq || !u.Trace.Zero() || !sameEntries(u.Entries, want.Entries) {
		t.Errorf("reused decode = %+v, want %+v", u, want)
	}
	// A zero-entry datagram empties the slice too.
	v0, _ := MarshalUtilUpdate(&UtilUpdate{Machine: "machine2", Seq: 10})
	if err := DecodeUtilUpdate(v0, &u); err != nil || len(u.Entries) != 0 || u.Seq != 10 {
		t.Errorf("zero-entry decode = %+v, %v", u, err)
	}
	if err := DecodeUtilUpdate(v1[:100], &u); !errors.Is(err, ErrBadSize) {
		t.Errorf("short datagram: err %v, want ErrBadSize", err)
	}
}

func TestUtilUpdateCodecAllocs(t *testing.T) {
	u := &UtilUpdate{
		Machine: "machine1", Seq: 7,
		Entries: []UtilEntry{{model.UtilDisk, 0.25}, {model.UtilCPU, 0.5}},
		Trace:   TraceContext{Trace: 1, Span: 2},
	}
	buf := make([]byte, 0, UtilUpdateSize)
	if n := testing.AllocsPerRun(1000, func() {
		buf, _ = AppendUtilUpdate(buf[:0], u)
	}); n != 0 {
		t.Errorf("AppendUtilUpdate: %v allocs/op, want 0", n)
	}
	a, _ := MarshalUtilUpdate(u)
	u.Machine = "machine2"
	b, _ := MarshalUtilUpdate(u)
	var dst UtilUpdate
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		// Alternating machines: each decode must copy the new name,
		// and nothing else.
		i++
		if i%2 == 0 {
			_ = DecodeUtilUpdate(a, &dst)
		} else {
			_ = DecodeUtilUpdate(b, &dst)
		}
	}); n > 1 {
		t.Errorf("DecodeUtilUpdate: %v allocs/op, want <= 1 (the machine name)", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = DecodeUtilUpdate(a, &dst) }); n != 0 {
		t.Errorf("DecodeUtilUpdate of an unchanged machine: %v allocs/op, want 0", n)
	}
}

func BenchmarkAppendUtilUpdate(b *testing.B) {
	u := &UtilUpdate{
		Machine: "machine1", Seq: 7,
		Entries: []UtilEntry{{model.UtilDisk, 0.25}, {model.UtilCPU, 0.5}},
	}
	buf := make([]byte, 0, UtilUpdateSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Seq = uint32(i)
		buf, _ = AppendUtilUpdate(buf[:0], u)
	}
}
