package experiments

import (
	"fmt"
	"time"

	"github.com/darklab/mercury/internal/freon"
	"github.com/darklab/mercury/internal/lvs"
	"github.com/darklab/mercury/internal/model"
	"github.com/darklab/mercury/internal/solver"
	"github.com/darklab/mercury/internal/stats"
	"github.com/darklab/mercury/internal/webcluster"
	"github.com/darklab/mercury/internal/workload"
)

// MultiTier is an extension experiment (the paper's Section 7: "Freon
// needs to be extended to deal with multi-tier services"): a two-tier
// service — web frontends and application backends, each tier behind
// its own balancer with its own Freon — shares one machine room. An
// inlet emergency hits a backend machine at t=600s; the backend Freon
// shifts its jobs to the other backends while the frontend tier stays
// untouched, and the service drops nothing end to end.
func MultiTier() (*Result, error) {
	const duration = 3000 * time.Second
	frontMachines := []string{"machine1", "machine2"}
	backMachines := []string{"machine3", "machine4", "machine5"}

	room, err := model.DefaultCluster("room", 5)
	if err != nil {
		return nil, err
	}
	sol, err := solver.New(room, solver.Config{})
	if err != nil {
		return nil, err
	}
	frontBal, backBal := lvs.New(), lvs.New()
	tt, err := webcluster.NewTwoTier(frontBal, backBal, frontMachines, backMachines, webcluster.TwoTierConfig{})
	if err != nil {
		return nil, err
	}
	frontFreon, err := freon.New(frontMachines, sol, frontBal, nil, freon.Config{})
	if err != nil {
		return nil, err
	}
	backFreon, err := freon.New(backMachines, sol, backBal, nil, freon.Config{})
	if err != nil {
		return nil, err
	}

	reqs := workload.GenerateWeb(workload.WebConfig{
		Duration:     duration,
		PeakRPS:      100,
		ValleyShare:  0.95,
		DynamicShare: 0.75,
		Seed:         3,
	})

	temps := map[string]*stats.Series{}
	for _, m := range append(append([]string(nil), frontMachines...), backMachines...) {
		temps[m] = stats.NewSeries(m)
	}

	idx := 0
	secs := int(duration / time.Second)
	for sec := 0; sec < secs; sec++ {
		if sec == 600 {
			if err := sol.PinInlet("machine3", 38.6); err != nil {
				return nil, err
			}
		}
		first := idx
		limit := time.Duration(sec+1) * time.Second
		for idx < len(reqs) && reqs[idx].At < limit {
			idx++
		}
		tick := tt.TickSecond(reqs[first:idx])
		feed := func(per map[string]webcluster.ServerTick) error {
			for m, st := range per {
				if err := sol.SetUtilization(m, model.UtilCPU, st.CPUUtil); err != nil {
					return err
				}
				if err := sol.SetUtilization(m, model.UtilDisk, st.DiskUtil); err != nil {
					return err
				}
			}
			return nil
		}
		if err := feed(tick.Front.PerServer); err != nil {
			return nil, err
		}
		if err := feed(tick.Back.PerServer); err != nil {
			return nil, err
		}
		sol.Step()
		if (sec+1)%5 == 0 {
			if err := frontFreon.TickPoll(); err != nil {
				return nil, err
			}
			if err := backFreon.TickPoll(); err != nil {
				return nil, err
			}
		}
		if (sec+1)%60 == 0 {
			if err := frontFreon.TickPeriod(); err != nil {
				return nil, err
			}
			if err := backFreon.TickPeriod(); err != nil {
				return nil, err
			}
		}
		if (sec+1)%10 == 0 {
			for m, series := range temps {
				temp, err := sol.Temperature(m, model.NodeCPU)
				if err != nil {
					return nil, err
				}
				series.Add(time.Duration(sec)*time.Second, float64(temp))
			}
		}
	}

	totals := tt.Totals()
	metrics := map[string]float64{
		"drop_rate":             totals.DropRate(),
		"backend_jobs":          float64(tt.BackendIssued()),
		"adjustments_machine3":  float64(backFreon.Admd().Adjustments("machine3")),
		"max_cpu_temp_machine3": temps["machine3"].Max(),
	}
	for _, m := range frontMachines {
		metrics["adjustments_"+m] = float64(frontFreon.Admd().Adjustments(m))
	}

	backSeries := []*stats.Series{temps["machine3"], temps["machine4"], temps["machine5"]}
	return &Result{
		Name: "multitier",
		Summary: fmt.Sprintf(
			"Extension: two-tier service (2 web + 3 app servers, per-tier Freon). Backend emergency at t=600s: "+
				"the backend Freon made %d adjustments on machine3 (max CPU %.1fC, red line 71C), the frontend tier "+
				"was untouched, and %.2f%% of %d requests were dropped end to end.",
			backFreon.Admd().Adjustments("machine3"), temps["machine3"].Max(),
			100*totals.DropRate(), totals.Arrived),
		Charts: []*stats.Chart{
			{Title: "Multi-tier: backend CPU temperatures (C)", Series: backSeries},
		},
		Metrics: metrics,
	}, nil
}
