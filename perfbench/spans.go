package main

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"time"
)

// Span is one timed call from the benchmark into a layer. N counts the
// operations the call covered (machines sampled, records applied), so
// per-operation costs are measured where the work happens.
type Span struct {
	Name       string
	Parent     int // index into the recorder's spans; -1 for a root
	Start, End time.Duration
	N          int
	// Allocs is the heap allocation count inside the span, recorded
	// only by a counting recorder.
	Allocs uint64
}

// Recorder keeps spans in memory, in start order, until the run ends.
// A nil *Recorder records nothing, which is the untraced mode: every
// method is then a no-op apart from the nil check.
type Recorder struct {
	t0    time.Time
	spans []Span
	open  []int
	// counting reads runtime.MemStats at both ends of every span. That
	// stops the world, so a counting recorder's times are not reported.
	counting bool
	ms       runtime.MemStats
}

// NewRecorder returns an empty recorder whose times count from now,
// with room for capacity spans before its slice grows.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{t0: time.Now(), spans: make([]Span, 0, capacity)}
}

// NewCountingRecorder returns a recorder that also counts each span's
// heap allocations.
func NewCountingRecorder(capacity int) *Recorder {
	r := NewRecorder(capacity)
	r.counting = true
	return r
}

// Begin opens a span under the innermost open span and returns its id.
func (r *Recorder) Begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, Span{Name: name, Parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	if r.counting {
		runtime.ReadMemStats(&r.ms)
		r.spans[id].Allocs = r.ms.Mallocs
	}
	r.spans[id].Start = time.Since(r.t0)
	return id
}

// End closes span id, which must be the innermost open span, crediting
// it with n operations.
func (r *Recorder) End(id, n int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
	if r.counting {
		runtime.ReadMemStats(&r.ms)
		r.spans[id].Allocs = r.ms.Mallocs - r.spans[id].Allocs
	}
	r.spans[id].N = n
	r.open = r.open[:len(r.open)-1]
}

// Spans returns the recorded spans (nil for a nil recorder).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteTo writes one line per span: name, parent, start and end in
// nanoseconds, and the operation count.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, s := range r.Spans() {
		k, err := fmt.Fprintf(bw, "%s %d %d %d %d\n", s.Name, s.Parent, s.Start.Nanoseconds(), s.End.Nanoseconds(), s.N)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// LayerTime aggregates every span of one name.
type LayerTime struct {
	Calls int
	Ops   int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the time child spans cover
	Durs  []float64     // each span's duration in seconds, in order
	// Allocs is the self allocation count: the spans' allocations
	// minus their children's (counting recorders only).
	Allocs uint64
}

// PerOp is the self time per operation (per call when no span counted
// operations).
func (l LayerTime) PerOp() time.Duration {
	n := l.Ops
	if n == 0 {
		n = l.Calls
	}
	if n == 0 {
		return 0
	}
	return l.Self / time.Duration(n)
}

// PerCall is the inclusive time per call.
func (l LayerTime) PerCall() time.Duration {
	if l.Calls == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Calls)
}

// SelfTimes aggregates spans by name. A span's self time is its
// duration minus the durations of its direct children; children are
// sequential calls made inside the parent, so they never overlap.
func SelfTimes(spans []Span) map[string]*LayerTime {
	childTime := make([]time.Duration, len(spans))
	childAllocs := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	out := map[string]*LayerTime{}
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &LayerTime{}
			out[s.Name] = l
		}
		d := s.End - s.Start
		l.Calls++
		l.Ops += s.N
		l.Total += d
		l.Self += d - childTime[i]
		l.Allocs += s.Allocs - childAllocs[i]
		l.Durs = append(l.Durs, d.Seconds())
	}
	return out
}
