package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/darklab/mercury/internal/experiments"
	"github.com/darklab/mercury/internal/fiddle"
	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/online"
	"github.com/darklab/mercury/internal/telemetry"
	"github.com/darklab/mercury/internal/units"
	"github.com/darklab/mercury/internal/webcluster"
)

// goldenEvents is the Figure 11 event log the online package's golden
// test pins. The benchmark only reads it.
const goldenEvents = "internal/online/testdata/fig11_events.golden"

// simTolerance is how far, in Celsius, an online sample may sit from
// the in-process simulation's; the online package's own Sim test uses
// the same bound.
const simTolerance = 0.1

// onlineDigest fingerprints the deterministic outputs of an online run,
// one digest per part so a mismatch names what diverged. Spans are not
// included: they are not deterministic on multi-core hosts and are
// counted as causal.span_mismatch instead.
type onlineDigest struct {
	Samples, Totals, Adjustments, Events, Alerts string
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:12]) }

func digestOnline(res *online.Result) onlineDigest {
	var d onlineDigest
	h := sha256.New()
	for _, s := range res.Samples {
		fmt.Fprintf(h, "%d", s.Sec)
		for _, t := range s.Temps {
			fmt.Fprintf(h, " %x", math.Float64bits(float64(t)))
		}
		h.Write([]byte{'\n'})
	}
	d.Samples = sum(h)

	h = sha256.New()
	fmt.Fprintf(h, "%+v", res.Totals)
	d.Totals = sum(h)

	h = sha256.New()
	names := make([]string, 0, len(res.Adjustments))
	for m := range res.Adjustments {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		fmt.Fprintf(h, "%s %d\n", m, res.Adjustments[m])
	}
	d.Adjustments = sum(h)

	d.Events = digestEvents(res.Events)
	d.Alerts = digestEvents(res.Alerts)
	return d
}

func digestEvents(evs []telemetry.Event) string {
	h := sha256.New()
	h.Write([]byte(eventText(evs)))
	return sum(h)
}

func eventText(evs []telemetry.Event) string {
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// diff names the parts of d that differ from ref.
func (d onlineDigest) diff(ref onlineDigest) []string {
	var out []string
	for _, p := range []struct {
		name     string
		got, ref string
	}{
		{"samples", d.Samples, ref.Samples},
		{"totals", d.Totals, ref.Totals},
		{"adjustments", d.Adjustments, ref.Adjustments},
		{"events", d.Events, ref.Events},
		{"alerts", d.Alerts, ref.Alerts},
	} {
		if p.got != p.ref {
			out = append(out, p.name)
		}
	}
	return out
}

// checkGolden compares a seed-1 Figure 11 run's event log with the
// online package's golden file.
func checkGolden(res *online.Result) error {
	want, err := os.ReadFile(goldenEvents)
	if err != nil {
		return err
	}
	got := eventText(res.Events)
	if got == string(want) {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("events diverge from %s at line %d: got %q want %q", goldenEvents, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("events: %d lines, %s has %d", len(gl), goldenEvents, len(wl))
}

// checkAgainstSim compares an online run with the in-process
// experiments.Sim rig driven by the same machines, seed and script: an
// implementation of the same per-second pipeline that shares no wire,
// UDP or daemon code with the online stack.
func checkAgainstSim(res *online.Result, machines int, seed int64, dur time.Duration) error {
	sim, err := experiments.NewSim(machines, seed, dur)
	if err != nil {
		return err
	}
	script, err := fiddle.ParseScript(online.Fig11Script)
	if err != nil {
		return err
	}
	sim.Fiddle = script.Schedule()
	fr, err := freon.New(sim.Cluster.Machines(), sim.Solver, sim.Bal, sim.Power(), freon.Config{})
	if err != nil {
		return err
	}
	sim.OnPoll = fr.TickPoll
	sim.OnPeriod = fr.TickPeriod
	names := sim.Cluster.Machines()
	var rows [][]units.Celsius
	sim.OnSecond = func(sec int, _ webcluster.Tick) error {
		if (sec+1)%10 != 0 {
			return nil
		}
		row := make([]units.Celsius, len(names))
		for i, m := range names {
			if row[i], err = sim.Solver.Temperature(m, model.NodeCPU); err != nil {
				return err
			}
		}
		rows = append(rows, row)
		return nil
	}
	if err := sim.Run(dur); err != nil {
		return err
	}
	if len(rows) != len(res.Samples) {
		return fmt.Errorf("sim took %d samples, online %d", len(rows), len(res.Samples))
	}
	for i, s := range res.Samples {
		for j, t := range s.Temps {
			if d := math.Abs(float64(t - rows[i][j])); d > simTolerance {
				return fmt.Errorf("sample %d %s: online %.4f sim %.4f", s.Sec, names[j], t, rows[i][j])
			}
		}
	}
	if res.Totals != sim.Cluster.Totals() {
		return fmt.Errorf("totals: online %+v sim %+v", res.Totals, sim.Cluster.Totals())
	}
	for _, m := range names {
		if got, want := res.Adjustments[m], fr.Admd().Adjustments(m); got != want {
			return fmt.Errorf("%s adjustments: online %d sim %d", m, got, want)
		}
	}
	return nil
}
